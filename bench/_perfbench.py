"""The one loader of ``perfbench/`` modules for the bench scripts.

``load(name)`` imports ``perfbench/<name>.py`` from its file path under the
module name ``perfbench_<name>``, so that nothing is put on ``sys.path`` and
no bare ``run``, ``workloads`` or ``calibration`` enters ``sys.modules``.
This file imports no numpy: a script loads it, and ``perfbench/run.py``
through it, before it caps the BLAS threads.  The scripts read it with
``runpy.run_path``, which needs no path set-up either.
"""

import importlib.util
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load(name):
    """perfbench/<name>.py, loaded from its path as ``perfbench_<name>``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module
