"""The five workloads.  Their reasons live in ``BENCHMARK.json`` and
``bench/README.md``; the parameters live here."""

from __future__ import annotations

from typing import Dict, Union

from ledger.builds import BuildSpec
from ledger.serve import ServeSpec

Spec = Union[BuildSpec, ServeSpec]

WORKLOADS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        BuildSpec("build_serial_plaw", graph="plaw", backend="serial", procs=1),
        BuildSpec("build_procs2_plaw", graph="plaw", backend="procs", procs=2),
        BuildSpec("build_serial_road", graph="road", backend="serial", procs=1),
        ServeSpec(
            "serve_point_zipf",
            graph="plaw",
            stream="point",
            # At 3000/s a host running 2-5 times slower than usual made
            # the generator late and brought the server near its knee,
            # and the p50 of ten runs spread by 37%; at 1000/s, in four
            # sets of ten from such hours, by 4% to 21%.
            nominal_rps=1000.0,
            p99_limit_s=0.010,
        ),
        ServeSpec(
            "serve_batch_road",
            graph="road",
            stream="batch",
            nominal_rps=150.0,
            p99_limit_s=0.100,
        ),
    )
}
