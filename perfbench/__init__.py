"""Benchmark of the OCR and extraction flagships; entry point run.py."""
