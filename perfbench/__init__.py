"""Outside-in benchmark of the multiperiod detector.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``, or every workload with
``python3 perfbench/all.py``. The detector under test is imported from the
checkout's ``src/``; nothing in it is modified on disk.
"""
