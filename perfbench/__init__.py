"""The repo benchmark (see README.md); ``run.py`` is the entry point."""
from .common import ensure_src_path

ensure_src_path()
