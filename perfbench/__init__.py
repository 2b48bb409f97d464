"""Out-of-process serving benchmark for the ``repro gateway`` server;
run ``python3 perfbench/run.py --help``."""
