"""Numerical curvature-tensor verification on Kaehler product patches."""
