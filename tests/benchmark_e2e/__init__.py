"""Smoke test for the end-to-end benchmark under benchmarks/e2e."""
