"""Dimensional aspect sentiment regression: data, model, trainer, metrics, LLM baseline."""

from .data import AspectInstance, DatasetSplit, VAPair

__all__ = ["VAPair", "AspectInstance", "DatasetSplit"]
__version__ = "0.1.0"
