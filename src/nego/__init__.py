"""Negotiation of software updates against multi-viewpoint contracts."""

__version__ = "0.1.0"
