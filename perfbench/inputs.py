"""Seeded input generation for the three workloads.

Everything a workload feeds the program comes from here and is a pure
function of ``(workload, seed)``: cell order, the warm-cell draw, the
arrival schedule, tenant assignment and the small generated MiniC
programs of ``service-mix``.  The generated programs carry their
expected ``print_int`` output, computed here in Python, so the output
check does not depend on the compiler under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

#: Registry benches of ``cold-sweep``: one or two per kernel family, both
#: categories, benches where GDP beats Unified and where it loses.  The
#: set is fixed (only the order is seeded) so the partition-quality
#: metrics repeat exactly across seeds, and sized so one cold pass over
#: both schemes takes 15-25 s on a 2-vCPU VM.
COLD_BENCHES = (
    "cjpeg", "djpeg", "fft", "fir", "g721dec", "gsmenc", "huffman", "latnrm",
    "pegwit", "rawdaudio", "unepic",
)
COLD_SCHEMES = ("unified", "gdp")
LATENCY = 5

PROFILES = ("dynamic", "static")
TIERS = ("andersen", "cs")

#: ``service-mix`` warms one cell of each of these registry benches, with
#: a seeded scheme.  Their cold costs are alike, so the warm-up in set-up
#: and the warm-read cost do not hinge on the seed.
WARM_BENCHES = ("djpeg", "fft", "g721dec", "rawcaudio")
SERVICE_SCHEMES = ("unified", "gdp")
TENANTS = ("alpha", "beta", "gamma")
#: Offered load: a fixed open-loop rate, well below what two workers on
#: a 2-vCPU VM sustain (a warm job costs ~6 ms, a cold one ~130 ms, so
#: the service is about 30% busy).
RATE_PER_S = 32.0
#: The schedule is offered in segments of this many submissions, the last
#: of each a cold job: 20 in 25 s, enough that the latency tail falls
#: inside them, few enough that the cache, journal and queue still do most
#: of the work.  Between segments the load generator pauses for the speed
#: probes (see ``workloads``).  A cold job holds the interpreter lock the
#: workers share, so the warm jobs that arrived while one ran were slowed:
#: at one cold job in 20, evenly spread, that was a third of them, enough
#: to pull the median latency into that slow mode on a slow run.  Last in
#: its segment, a cold job slows only the warm jobs still in flight.
SEGMENT_JOBS = 40


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def cold_sweep_cells(seed: int) -> List[Tuple[str, str]]:
    cells = [(b, s) for b in COLD_BENCHES for s in COLD_SCHEMES]
    rng_for("cold-sweep", seed).shuffle(cells)
    return cells


def prepare_matrix_cells(bench_names: List[str], seed: int) -> List[Tuple[str, str, str]]:
    cells = [(b, p, t) for b in bench_names for p in PROFILES for t in TIERS]
    rng_for("prepare-matrix", seed).shuffle(cells)
    return cells


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------

_FIR = """
int N = 16;
int x[16];
int y[16];
int c[4];
int main() {
  int i; int j; int acc; int sum;
  for (i = 0; i < 4; i = i + 1) { c[i] = i * %(ca)d + %(cb)d; }
  for (i = 0; i < N; i = i + 1) { x[i] = (i * %(xa)d + %(xb)d) %% %(xm)d; }
  sum = 0;
  for (i = 0; i < N - 4; i = i + 1) {
    acc = 0;
    for (j = 0; j < 4; j = j + 1) { acc = acc + x[i + j] * c[j]; }
    y[i] = acc;
    sum = sum + acc;
  }
  print_int(y[%(k)d]);
  print_int(sum);
  return 0;
}
"""


def _program(rng: random.Random) -> Tuple[str, List[int]]:
    """A seeded variant of the FIR kernel and the output it must print.

    Every variant has the same shape, so cold jobs cost alike and their
    latencies, which set the tail, form one mode.  No constant is 0 or 1,
    so constant folding removes the same ops from every variant.
    """
    p = {
        "ca": rng.randint(2, 5), "cb": rng.randint(2, 5),
        "xa": rng.randint(2, 9), "xb": rng.randint(2, 9),
        "xm": rng.choice((13, 17, 19, 23)), "k": rng.randint(0, 11),
    }
    c = [i * p["ca"] + p["cb"] for i in range(4)]
    x = [(i * p["xa"] + p["xb"]) % p["xm"] for i in range(16)]
    y = [sum(x[i + j] * c[j] for j in range(4)) for i in range(12)]
    return _FIR % p, [y[p["k"]], sum(y)]


@dataclass
class Submission:
    """One open-loop arrival: due ``due_s`` seconds after the start."""

    index: int
    due_s: float
    tenant: str
    scheme: str
    bench: Optional[str] = None          # a warm registry cell
    name: Optional[str] = None           # a cold generated program ...
    source: Optional[str] = None
    expected_output: List[int] = field(default_factory=list)

    @property
    def cold(self) -> bool:
        return self.source is not None

    def request(self) -> dict:
        """Keyword arguments of ``ServiceClient.submit``."""
        config = {"scheme": self.scheme, "latency": LATENCY}
        if self.cold:
            return {"source": self.source, "name": self.name,
                    "config": config, "tenant": self.tenant}
        return {"bench": self.bench, "config": config, "tenant": self.tenant}


@dataclass
class ServiceMix:
    warm_cells: List[Tuple[str, str]]
    submissions: List[Submission]


def service_mix(seed: int, seconds: float) -> ServiceMix:
    rng = rng_for("service-mix", seed)
    warm = [(b, rng.choice(SERVICE_SCHEMES)) for b in WARM_BENCHES]
    count = max(1, int(seconds * RATE_PER_S))
    # Cold jobs set the latency tail.  Each ends a segment, and all run
    # the paper's scheme on one kernel shape, so they cost alike.
    cold_slots = set(range(min(SEGMENT_JOBS, count) - 1, count, SEGMENT_JOBS))
    seen = set()
    submissions = []
    for index in range(count):
        sub = Submission(index, index / RATE_PER_S, rng.choice(TENANTS), "gdp")
        if index in cold_slots:
            source, expected = _program(rng)
            while source in seen:
                source, expected = _program(rng)
            seen.add(source)
            sub.name = f"svc{index}"
            sub.source = source
            sub.expected_output = expected
        else:
            sub.bench, sub.scheme = rng.choice(warm)
        submissions.append(sub)
    return ServiceMix(warm, submissions)
