"""Record the digests of the benchmark's exact outputs in reference.json.

    python3 perfbench/record_reference.py

Runs, in this process, every invocation of every workload that writes an
exact output (once, or for each of the EXACT_SEEDS seeds when the output
depends on the seed) and stores the sha256 of each output below its
provenance line.  Record at a commit whose outputs are known good; the
benchmark then fails any run whose exact outputs differ.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from workloads import EXACT_SEEDS, WORKLOADS, body_digest

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import jackwalk.cli

    reference = {}
    cwd = os.getcwd()
    work = os.path.join(HERE, "_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        os.chdir(tmp)
        try:
            for workload in WORKLOADS.values():
                for seed in range(EXACT_SEEDS):
                    for call in workload.invocations(seed):
                        if not call.exact or (seed and call.ref_seed is None):
                            continue
                        for file, content in workload.files(seed).items():
                            with open(file, "w") as handle:
                                json.dump(content, handle)
                        with contextlib.redirect_stderr(io.StringIO()):
                            code = jackwalk.cli.main(list(call.argv))
                        if code != 0:
                            sys.exit("%s exited %d" % (call.argv, code))
                        for out in call.exact:
                            with open(out, "rb") as handle:
                                reference[call.ref_key(out)] = \
                                    body_digest(handle.read())
        finally:
            os.chdir(cwd)
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump(reference, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print("recorded %d digests" % len(reference))


if __name__ == "__main__":
    main()
