"""The repository benchmark: four serving workloads measured end to end.

Run ``python3 -m bench --workload <name> --seed <n>`` from the repository
root (see ``bench/README.md``).  The package drives the public API of
:mod:`repro.serve`, :mod:`repro.fleet`, :mod:`repro.guard`,
:mod:`repro.overload`, :mod:`repro.obs` and :mod:`repro.fastpath`; it
changes nothing under ``src/``.  Importing it has no side effects: thread
pinning and ``sys.path`` set-up happen in ``bench/__main__.py`` only.
"""
