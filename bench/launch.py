"""Starts the cli workload's processes from a small interpreter.

Linux carries the peak RSS of the process that spawns a child into the
child's ru_maxrss (exec keeps the larger of the old and the new high-water
mark), so a process started by run.py, which holds numpy and the inputs,
would report run.py's peak rather than its own.  This launcher imports only
the standard library and stays far below a cli process, so the ru_maxrss of
its children is theirs.

Protocol, one JSON document per line: read an argv list from stdin, run it,
write [exit code, stdout text]; at the end of stdin, write the largest
ru_maxrss of the children in MB.
"""

import json
import resource
import subprocess
import sys


def main() -> None:
    for line in sys.stdin:
        res = subprocess.run(json.loads(line), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        print(json.dumps([res.returncode, res.stdout.decode()]), flush=True)
    print(json.dumps(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024), flush=True)


if __name__ == "__main__":
    main()
