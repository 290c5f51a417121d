"""Exact cohomology-ring arithmetic and integer linear algebra."""
