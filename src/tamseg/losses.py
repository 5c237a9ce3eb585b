"""Compound segmentation loss: soft Dice plus cross-entropy, averaged over classes.

For each class c the loss contributes

    (1 - 2*|T_c * P_c| / (|T_c| + |P_c| + DICE_EPS))  +  (-1/N * sum T_c * log P_c)

where T is one-hot truth, P the predicted probabilities, and N the pixel
count. The class mean keeps the scale independent of the label count.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError, ValidationError
from .tensor import Tensor, clip, log, mul, scale, shift, slice_axis, tsum

DICE_EPS = 1e-6
LOG_CLAMP = 1e-7


def one_hot(labels: np.ndarray, classes: int, dtype=np.float32) -> Tensor:
    """Integer label map (*spatial) -> one-hot Tensor (classes, *spatial)."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= classes:
        raise ValidationError(f"labels outside [0, {classes}): "
                              f"min {labels.min()}, max {labels.max()}")
    planes = (np.arange(classes).reshape((classes,) + (1,) * labels.ndim)
              == labels[None])
    return Tensor(planes.astype(dtype))


def _check_pair(probs: Tensor, truth: Tensor) -> None:
    if probs.shape != truth.shape:
        raise ShapeError(f"probability map {probs.shape} and truth {truth.shape} "
                         "must share a shape")
    if probs.ndim < 2:
        raise ShapeError("expected (classes, *spatial) maps")
    t = truth.data
    if not (np.all((t == 0) | (t == 1)) and
            np.allclose(t.sum(axis=0), 1.0, atol=1e-6)):
        raise ValidationError("truth must be one-hot over the class axis")


def _per_class_terms(probs: Tensor, truth: Tensor) -> list[tuple[Tensor, Tensor]]:
    classes = probs.shape[0]
    n = math.prod(probs.shape[1:])
    terms = []
    for c in range(classes):
        p_c = slice_axis(probs, 0, c, c + 1)
        t_c = slice_axis(truth, 0, c, c + 1)
        inter = tsum(mul(t_c, p_c))
        denom = shift(tsum(t_c) + tsum(p_c), DICE_EPS)
        dice = shift(scale(inter / denom, -2.0), 1.0)
        ce = scale(tsum(mul(t_c, log(clip(p_c, LOG_CLAMP, 1.0 - LOG_CLAMP)))),
                   -1.0 / n)
        terms.append((dice, ce))
    return terms


def dice_ce_loss(probs: Tensor, truth: Tensor) -> Tensor:
    """Class-averaged soft-Dice + cross-entropy between probabilities and one-hot truth."""
    _check_pair(probs, truth)
    classes = probs.shape[0]
    total = None
    for dice, ce in _per_class_terms(probs, truth):
        term = dice + ce
        total = term if total is None else total + term
    return scale(total, 1.0 / classes)


def loss_components(probs: Tensor, truth: Tensor) -> dict[str, list[float]]:
    """Per-class Dice and cross-entropy terms as plain floats, for reporting."""
    _check_pair(probs, truth)
    terms = _per_class_terms(probs, truth)
    return {"dice": [d.item() for d, _ in terms],
            "cross_entropy": [c.item() for _, c in terms]}
