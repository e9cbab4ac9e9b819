"""Host-time benchmark of the reproduction's three user flows.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
regenerates the paper report, runs a policy sweep, or streams a scenario
into ``repro serve``; see ``perfbench/README.md``.
"""
