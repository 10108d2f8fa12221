"""The campaign engine's benchmark of record (see ``run.py``)."""
