"""The four benchmark workloads.

Each workload is a closed loop with one client: it sends its next
request only after the previous one completed.  A request is a ladder
pass, a codec pass (a block of every kind, then a min-distance round),
a fresh L=16 code, or a CLI round.  Inputs come from seeded generators
that do not call the library; `input(i)` gives request i's input and
the same seed always gives the same inputs.  Every library call goes
through `self.tr.call`, which puts a span around it in traced requests
and costs one extra Python call otherwise.

Why these workloads:
- ladder: NDXOR/DXOR propagation dominates (baobab layer); topology and
  coset reduction are nearly absent.
- codec: the codec read path (syndrome/correct) and write path (encode)
  dominate on small graphs; large-P propagation and topology are absent.
- quotient16: L=16, k=5 graphs (2048 nodes, 61440 plaquettes); coset
  reduction, plaquette enumeration and JSON do all the work and
  propagation none.  Every code is new to the process, so per-code
  caches cannot hide the cost.
- cli: every call pays interpreter start, import and JSON parsing, which
  the in-process workloads amortise away.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

from adinkra import (
    AmbiguousCorrectionError,
    Baobab,
    GateTrace,
    UncorrectableError,
    adinkra_to_gamma,
    build_chromotopology,
    check_garden,
    count_valid_dashings,
    decode,
    encode,
    extract_baobab,
    fill_erasures,
    from_json,
    min_distance,
    parse_family,
    plaquette_count,
    plaquettes,
    reconstruct_adinkra,
    reconstruct_dashing,
    skeleton_baobab_edges,
    to_json,
    valise_heights,
    verify_heights,
    verify_odd_dashing,
    weight_heights,
)
from adinkra.codec import block_length, message_length

from tracer import LayerTimes, median, percentile

E8_CODE = ("11110000", "00001111", "11001100", "10101010")  # [8,4,4]


REFERENCE_S = 1e-3  # normalised times count reference_loop runs as 1 ms


def reference_loop() -> int:
    """Fixed pure-Python work, independent of the library.

    On a shared 2-CPU virtual machine the CPU speed was seen to drift by
    up to 1.75x within minutes.  Timing this loop next to every request
    and dividing by it cancels most of that drift (see
    `Workload.end_segment`); it churns dicts and tuples of small ints,
    like the library's inner loops.
    """
    table = {}
    for i in range(4000):
        table[(i, i ^ 5)] = i & 1
    return sum(k[0] * v for k, v in table.items())


def reference_time() -> float:
    """Median wall time of nine reference_loop runs, which rejects runs
    hit by a millisecond-scale stall."""
    times = []
    for _ in range(9):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class CheckFailed(Exception):
    """A library output disagreed with what the benchmark expected."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


class Workload:
    """Shared bookkeeping: attempts, failures and latency samples."""

    name = ""
    # The sample kind timing one whole request; its normalised time is
    # sampled as request_kind + "_norm".
    request_kind = ""
    # A fixed number of requests per run instead of a time bound, for
    # requests so long that a time bound would leave a speed-dependent
    # handful of samples.
    fixed_requests: int | None = None

    def __init__(self, root: Path, seed: int, tracer):
        self.root = root
        self.seed = seed
        self.tr = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.reference: list[float] = []  # pace() results
        self._ref = None  # the latest pace, opening the next segment
        self.setup_times: list[float] = []  # set by the runner

    def rng(self, i) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def sample(self, kind: str, seconds: float) -> None:
        self.samples.setdefault(kind, []).append(seconds)

    def pace(self) -> float:
        took = reference_time()
        self.reference.append(took)
        return took

    def begin_segments(self) -> None:
        """The first request paces; later ones reuse the closing pace of
        the request before, which ran just before this one."""
        if self._ref is None:
            self._ref = self.pace()

    def end_segment(self, seconds: float) -> float:
        """`seconds` of work just done, normalised: divided by the mean
        reference_loop time just before and just after it, in units of
        REFERENCE_S.  Long requests end a segment after every step."""
        ref = self.pace()
        normalised = seconds / ((self._ref + ref) / 2) * REFERENCE_S
        self._ref = ref
        return normalised

    def attempt(self, label: str, fn, *args) -> None:
        """Run one checked operation; count it and any failure."""
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # every failure is counted, none hidden
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {type(exc).__name__}: {exc}")

    def op_norm(self) -> tuple[float, int]:
        """Normalised seconds of the median request, and sample count."""
        norm = self.samples.get(self.request_kind + "_norm", [])
        return median(norm), len(norm)

    def input_prefix(self, count: int = 16):
        return [self.input(i) for i in range(count)]

    def close(self) -> None:
        pass

    # Subclasses define: input(i), warm_up(), request(i) -> kind,
    # figures() and layers(LayerTimes).


# ---------- ladder ----------

# (rung, n, code generators, height profile); v = valise, x = weight.
RUNGS = tuple(
    (f"n{n}{p}", n, (), p) for n in range(3, 9) for p in "vx"
) + (("n3k1", 3, ("1111",), "v"), ("e8", 4, E8_CODE, "v"))
SMALL = frozenset(r for r, n, gens, _ in RUNGS if n <= 5 and r != "e8")
GROUPS = ("n6v", "n6x", "n7v", "n7x", "n8v", "n8x", "e8", "small")
COUNTED = ("n3v", "n3k1")  # count_valid_dashings is exhaustive: small only


def group_of(rung: str) -> str:
    return "small" if rung in SMALL else rung


class Ladder(Workload):
    """Full library round trip on every rung of the size ladder."""

    name = "ladder"
    request_kind = "pass"
    fixed_requests = 3  # a pass takes 10-18 s; an odd count has a median

    def __init__(self, root, seed, tracer):
        super().__init__(root, seed, tracer)
        self.steps: dict[str, tuple[int, int]] = {}
        self.sizes: dict[str, tuple[int, int, int]] = {}

    def input(self, i):
        rng = self.rng(i)
        # One bit per baobab slot: dof = 2**n + k - 1.
        return {rung: [rng.randrange(2)
                       for _ in range((1 << n) + len(gens) - 1)]
                for rung, n, gens, _ in RUNGS}

    def warm_up(self) -> None:
        bits = self.input("warm-up")
        for rung, n, gens, profile in RUNGS:
            if rung in SMALL:
                self.rung(rung, n, gens, profile, bits[rung])
            else:
                build_chromotopology(n, gens)

    def request(self, i) -> str:
        bits = self.input(i)
        total = small = normalised = 0.0
        self.begin_segments()
        for rung, n, gens, profile in RUNGS:
            t = time.perf_counter()
            self.attempt(rung, self.rung, rung, n, gens, profile, bits[rung])
            took = time.perf_counter() - t
            norm = self.end_segment(took)
            self.sample(f"rung.{rung}_norm", norm)
            normalised += norm
            total += took
            if rung in SMALL:
                small += took
        self.sample("pass", total)
        self.sample("pass_norm", normalised)
        self.sample("small", small)
        return "pass"

    def rung(self, rung, n, gens, profile, bits) -> None:
        call, g = self.tr.call, group_of(rung)
        sk = call("graph.build_chromotopology", g,
                  build_chromotopology, n, gens)
        self.sizes[rung] = (len(sk.nodes), len(sk.edges), plaquette_count(sk))
        tree, cycles, _ = call("baobab.skeleton_baobab_edges", g,
                               skeleton_baobab_edges, sk)
        slots = sorted(tree + cycles, key=lambda e: (e.u, e.color))
        expect(len(slots) == len(bits), "baobab slot count != dof")
        seeds = dict(zip(slots, bits))
        signs, _ = call("baobab.reconstruct_dashing", g,
                        reconstruct_dashing, sk, seeds)
        heights = (valise_heights if profile == "v" else weight_heights)(sk)
        adk = sk.with_dashing(signs).with_heights(heights)
        expect(call("graph.verify", g, verify_odd_dashing, adk).ok,
               "odd dashing violated")
        expect(call("graph.verify", g, verify_heights, adk).ok,
               "heights violated")
        gammas = call("algebra.adinkra_to_gamma", g, adinkra_to_gamma, adk)
        expect(call("algebra.check_garden", g, check_garden, gammas).ok,
               "garden relations violated")
        bb = call("baobab.extract_baobab", g, extract_baobab, adk)
        rebuilt, dash_trace, dir_trace = call(
            "baobab.reconstruct_adinkra", g, reconstruct_adinkra, sk, bb)
        expect(rebuilt == adk, "rebuilt adinkra differs")
        self.steps[rung] = (len(dash_trace.steps), len(dir_trace.steps))
        replayed = call("baobab.replay", g, dash_trace.replay_dashing, bb.bits)
        expect(all(replayed[e] == (1 if s == 1 else 0)
                   for e, s in signs.items()), "dashing trace replay differs")
        heads = call("baobab.replay", g,
                     dir_trace.replay_directions, bb.pinned)
        upper = {e: e.u if heights[e.u] > heights[e.v] else e.v
                 for e in sk.edges}
        expect(heads == upper, "direction trace replay differs")
        if rung in COUNTED:
            count = call("baobab.count_valid_dashings", g,
                         count_valid_dashings, sk)
            expect(count == 2 ** len(bits), "valid dashing count != 2**dof")

    def op_norm(self) -> tuple[float, int]:
        """A pass assembled from each rung's median normalised time, so
        a stall that hits one rung of one pass does not move it."""
        rungs = [self.samples[f"rung.{r}_norm"] for r, *_ in RUNGS]
        return sum(median(r) for r in rungs), len(rungs[0])

    def figures(self):
        passes, small = self.samples["pass"], self.samples["small"]
        return {
            "roundtrip_s": (median(passes), "s", len(passes)),
            "roundtrip_small_ms": (median(small) * 1e3, "ms", len(small)),
        }

    def layers(self, lt: LayerTimes):
        out = {}
        for k, name in enumerate(("graph.nodes", "graph.edges",
                                  "graph.plaquette_count")):
            out[name] = sum(s[k] for s in self.sizes.values())
        for name in ("graph.build_chromotopology", "graph.verify",
                     "baobab.replay", "baobab.skeleton_baobab_edges",
                     "baobab.count_valid_dashings"):
            out[f"{name}.s"] = median(lt.per_request(name))
        for group in GROUPS:
            tags = {group}
            rungs = [r for r, *_ in RUNGS if group_of(r) == group]
            for name in ("baobab.reconstruct_dashing", "baobab.extract_baobab",
                         "baobab.reconstruct_adinkra",
                         "algebra.adinkra_to_gamma", "algebra.check_garden"):
                out[f"{name}.{group}.s"] = median(lt.per_request(name, tags))
            ndxor = sum(self.steps.get(r, (0, 0))[0] for r in rungs)
            dxor = sum(self.steps.get(r, (0, 0))[1] for r in rungs)
            out[f"baobab.ndxor_steps.{group}"] = ndxor
            out[f"baobab.dxor_steps.{group}"] = dxor
            rec = lt.per_request("baobab.reconstruct_adinkra", tags)
            out[f"baobab.gates_per_s.{group}"] = median(
                [(ndxor + dxor) / t for t in rec if t > 0])
        return out


# ---------- codec ----------

# (tag, family header, block bits, message bits, minimum distance)
CODEC_FAMILIES = (
    ("n3", "n=3;code=;scheme=dashing", 12, 7, 3),
    ("n3k1", "n=3;code=1111;scheme=dashing", 16, 8, 4),
    ("quat", "quaternion", 6, 3, 3),
    ("n4", "n=4;code=;scheme=dashing", 32, 15, 4),
    ("e8", "n=4;code=" + ",".join(E8_CODE) + ";scheme=dashing", 64, 19, 8),
)
# The README's distance table: (tag, family header, minimum distance).
README_DISTANCES = (
    ("n2", "n=2;code=;scheme=dashing", 2),
    ("n3", "n=3;code=;scheme=dashing", 3),
    ("n3k1", "n=3;code=1111;scheme=dashing", 4),
    ("quat", "quaternion", 3),
)
# One codec pass: every family under the three common cases and the two
# double-flip cases on n3k1 (distance 4); then one min-distance round.
SCHEDULE = tuple(
    (case, fam) for case in ("clean", "flip1", "erase")
    for fam in CODEC_FAMILIES
) + (("flip2_max1", CODEC_FAMILIES[1]), ("flip2_max2", CODEC_FAMILIES[1]))


class Codec(Workload):
    """Closed-loop block stream: encode, channel, decode or fill."""

    name = "codec"
    request_kind = "pass"
    OUTCOMES = ("clean", "corrected", "detected", "ambiguous", "filled")

    def __init__(self, root, seed, tracer):
        super().__init__(root, seed, tracer)
        self.families = {tag: parse_family(h) for tag, h, *_ in CODEC_FAMILIES}
        self.readme = {tag: parse_family(h) for tag, h, _ in README_DISTANCES}
        self.outcomes = dict.fromkeys(self.OUTCOMES, 0)
        self.double = [0, 0]  # max_flips=2 attempts: [unique, total]
        for tag, _h, block, msg, _d in CODEC_FAMILIES:
            fam = self.families[tag]
            if (block_length(fam), message_length(fam)) != (block, msg):
                raise CheckFailed(f"{tag}: block/message length changed")

    def input(self, i):
        """The blocks of pass i: message bits and channel positions."""
        rng = self.rng(i)
        blocks = []
        for case, (tag, _h, block, msg, _d) in SCHEDULE:
            count = {"clean": 0, "flip1": 1}.get(case, 2)
            if case == "erase":
                count = rng.randint(1, 2)
            blocks.append({
                "case": case, "family": tag,
                "message": [rng.randrange(2) for _ in range(msg)],
                "positions": sorted(rng.sample(range(block), count)),
            })
        return blocks

    def warm_up(self) -> None:
        self.request("warm-up")

    def request(self, i) -> str:
        inputs = self.input(i)
        self.begin_segments()
        start = time.perf_counter()
        for inp in inputs:
            self.attempt(f"{inp['case']} {inp['family']}", self.block, inp)
        t = time.perf_counter()
        for tag, _h, d in README_DISTANCES:
            self.attempt(f"min_distance {tag}", self.distance, tag, d)
        end = time.perf_counter()
        self.sample("distance", end - t)
        self.sample("pass", end - start)
        self.sample("pass_norm", self.end_segment(end - start))
        return "pass"

    def distance(self, tag, want) -> None:
        got = self.tr.call("codec.min_distance", tag, min_distance,
                           self.readme[tag])
        expect(got == want, f"min distance {got} != README {want}")

    def block(self, inp) -> None:
        call, tag, case = self.tr.call, inp["family"], inp["case"]
        family, message = self.families[tag], tuple(inp["message"])
        pos = tuple(inp["positions"])
        t0 = time.perf_counter()
        sent = call("codec.encode", tag, encode, message, family)
        t1 = time.perf_counter()
        received = sent.flip(pos)
        t2 = time.perf_counter()
        if case == "erase":
            filled = call("codec.fill_erasures", tag, fill_erasures,
                          received, pos)
            t3 = time.perf_counter()
            outcome = "filled"
            expect(filled == sent, "erasure fill did not restore the block")
        elif case == "flip2_max1":
            try:
                call("codec.decode", tag, decode, received, max_flips=1)
                raise CheckFailed("double flip at max_flips=1 not detected")
            except UncorrectableError:
                t3 = time.perf_counter()
            outcome = "detected"
        elif case == "flip2_max2":
            self.double[1] += 1
            try:
                got = call("codec.decode2", tag, decode, received, max_flips=2)
                t3 = time.perf_counter()
                expect(got.message == message, "double flip mis-corrected")
                outcome = "corrected"
                self.double[0] += 1
            except AmbiguousCorrectionError:
                t3 = time.perf_counter()
                outcome = "ambiguous"
        else:
            got = call("codec.decode", tag, decode, received)
            t3 = time.perf_counter()
            expect(got.message == message and got.flips == pos,
                   f"decode returned {got}")
            outcome = "clean" if case == "clean" else "corrected"
        self.outcomes[outcome] += 1
        self.sample("encode", t1 - t0)
        self.sample("decode", t3 - t2)
        self.sample("block", t1 - t0 + t3 - t2)

    def figures(self):
        enc, dec, blocks = (self.samples.get(k, [])
                            for k in ("encode", "decode", "block"))
        dist = self.samples["distance"]
        return {
            "blocks_per_s": (len(blocks) / sum(self.samples["pass"]), "1/s",
                             len(blocks)),
            "encode_p50_us": (median(enc) * 1e6, "us", len(enc)),
            "decode_p50_us": (median(dec) * 1e6, "us", len(dec)),
            "decode_p99_us": (percentile(dec, 99) * 1e6, "us", len(dec)),
            "distance_ms": (median(dist) * 1e3, "ms", len(dist)),
        }

    def layers(self, lt: LayerTimes):
        out = {}
        for tag, *_ in CODEC_FAMILIES:
            for name in ("encode", "decode", "fill_erasures"):
                out[f"codec.{name}.{tag}.p50_us"] = median(
                    lt.per_call(f"codec.{name}", {tag})) * 1e6
        out["codec.decode2.n3k1.p50_us"] = median(
            lt.per_call("codec.decode2", {"n3k1"})) * 1e6
        for tag, _h, _d in README_DISTANCES:
            out[f"codec.min_distance.{tag}.s"] = median(
                lt.per_call("codec.min_distance", {tag}))
        for outcome, count in self.outcomes.items():
            out[f"codec.{outcome}"] = count
        out["codec.blocks"] = sum(self.outcomes.values())
        unique, total = self.double
        out["codec.decode2.unique_ratio"] = unique / total if total else 0.0
        return out


# ---------- quotient16 ----------

RM14 = ("1111111111111111", "0000000011111111", "0000111100001111",
        "0011001100110011", "0101010101010101")  # RM(1,4), doubly even


def span_key(gens) -> frozenset:
    """All codewords of the span, so equal codes compare equal."""
    words = {0}
    for g in gens:
        words |= {w ^ int(g, 2) for w in words}
    return frozenset(words)


class Quotient16(Workload):
    """Fresh RM(1,4) permutations: build, plaquettes, baobab edges, JSON."""

    name = "quotient16"
    request_kind = "code"
    N, LENGTH = 11, 16

    def __init__(self, root, seed, tracer):
        super().__init__(root, seed, tracer)
        self._codes: list[tuple[str, ...]] = []
        self._seen: set = set()
        self._stream = random.Random(f"{self.name}:{seed}")
        self.sizes = (0, 0, 0)

    def input(self, i):
        """Code i of a stream of distinct coordinate permutations."""
        while len(self._codes) <= i:
            perm = list(range(self.LENGTH))
            self._stream.shuffle(perm)
            gens = tuple("".join(g[p] for p in perm) for g in RM14)
            key = span_key(gens)
            if key not in self._seen:
                self._seen.add(key)
                self._codes.append(gens)
        return self._codes[i]

    def warm_up(self) -> None:
        self.attempt("warm-up code", self.code, self.input(0))

    def request(self, i) -> str:
        # Code 0 is the warm-up's; every timed code is new to the process.
        gens = self.input(i + 1)
        self.begin_segments()
        start = time.perf_counter()
        self.attempt(f"code {i}", self.code, gens)
        took = time.perf_counter() - start
        self.sample("code", took)
        self.sample("code_norm", self.end_segment(took))
        return "code"

    def code(self, gens) -> None:
        call = self.tr.call
        sk = call("graph.build_chromotopology", None, build_chromotopology,
                  self.N, gens)
        plaqs = call("graph.plaquettes", None, plaquettes, sk)
        tree, cycles, _ = call("baobab.skeleton_baobab_edges", None,
                               skeleton_baobab_edges, sk)
        text = call("graph.to_json", None, to_json, sk)
        back = call("graph.from_json", None, from_json, text)
        self.sizes = (len(sk.nodes), len(sk.edges), len(plaqs))
        want = (2 ** self.N, self.LENGTH * 2 ** (self.N - 1),
                comb(self.LENGTH, 2) * 2 ** (self.N - 2))
        expect(self.sizes == want, f"sizes {self.sizes} != {want}")
        expect(len(tree) == 2 ** self.N - 1 and len(cycles) == len(RM14),
               "baobab edge counts")
        expect(back == sk, "from_json(to_json(s)) != s")

    def figures(self):
        codes = self.samples["code"]
        return {"quotient_build_s": (median(codes), "s", len(codes))}

    def layers(self, lt: LayerTimes):
        out = dict(zip(("graph.nodes", "graph.edges", "graph.plaquette_count"),
                       self.sizes))
        for name in ("graph.build_chromotopology", "graph.plaquettes",
                     "graph.to_json", "graph.from_json",
                     "baobab.skeleton_baobab_edges"):
            out[f"{name}.s"] = median(lt.per_request(name))
        return out


# ---------- cli ----------

CLI_FAMILY = "n=3;code=1111;scheme=dashing"
CLI_COMMANDS = ("build", "verify", "baobab", "reconstruct",
                "encode", "inject", "decode")


class CliError(CheckFailed):
    pass


def cli_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


class Cli(Workload):
    """Sequential `python -m adinkra.cli` calls, one child at a time."""

    name = "cli"
    request_kind = "round"

    def __init__(self, root, seed, tracer):
        super().__init__(root, seed, tracer)
        self.env = cli_env(root)
        self.spent = self.spent_normalised = 0.0
        self.trace_path = (root / "perfbench" / "out"
                           / f"cli-{os.getpid()}.jsonl")
        self.trace_path.parent.mkdir(exist_ok=True)

    def input(self, i):
        rng = self.rng(i)
        return {"message": "".join(str(rng.randrange(2)) for _ in range(8)),
                "inject_seed": rng.randrange(1 << 31)}

    def warm_up(self) -> None:
        self.request("warm-up")

    def cli(self, command, args=(), stdin="") -> str:
        """Run one subcommand and return its stdout; its wall time is
        added to `self.spent`, and its normalised time to
        `self.spent_normalised`."""
        start = time.perf_counter()
        proc = self.tr.call(
            f"cli.{command}", None, subprocess.run,
            [sys.executable, "-m", "adinkra.cli", command, *args],
            input=stdin, capture_output=True, text=True, cwd=self.root,
            env=self.env, timeout=60)
        took = time.perf_counter() - start
        self.spent += took
        self.spent_normalised += self.end_segment(took)
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
            raise CliError(f"{command} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")
        return proc.stdout

    def request(self, i) -> str:
        inp = self.input(i)
        self.spent = self.spent_normalised = 0.0
        self.begin_segments()
        try:
            built = self.cli("build", ["--n", "7"])
            self.cli("verify", stdin=built)
            bb_text = self.cli("baobab", stdin=built)
            rebuilt = self.cli("reconstruct",
                               ["--trace", str(self.trace_path)],
                               stdin=bb_text)
            pipeline = self.spent
            self.attempt("reconstruct output", self.check_pipeline,
                         built, bb_text, rebuilt)
            wire = self.cli("encode", ["--family", CLI_FAMILY,
                                       "--message", inp["message"]])
            hit = self.cli("inject", ["--flips", "1", "--seed",
                                      str(inp["inject_seed"])], stdin=wire)
            out = self.cli("decode", stdin=hit)
            codec = self.spent - pipeline
            self.attempt("decoded message", expect,
                         out.strip() == inp["message"],
                         f"decoded {out.strip()!r} != {inp['message']!r}")
        except CliError as exc:
            if len(self.failures) < 20:
                self.failures.append(str(exc))
            return "failed"
        self.sample("pipeline", pipeline)
        self.sample("codec", codec)
        self.sample("round", pipeline + codec)
        self.sample("round_norm", self.spent_normalised)
        return "round"

    def check_pipeline(self, built, bb_text, rebuilt) -> None:
        expect(rebuilt == built, "reconstruct output is not byte-identical")
        trace = GateTrace.from_jsonl(self.trace_path.read_text())
        bb = Baobab.from_json(bb_text)
        dash = GateTrace(trace.length, tuple(
            s for s in trace.steps if s.gate == "NDXOR"))
        dirs = GateTrace(trace.length, tuple(
            s for s in trace.steps if s.gate == "DXOR"))
        adk = from_json(built)
        bits = dash.replay_dashing(bb.bits)
        expect(all(bits[e] == (1 if s == 1 else 0)
                   for e, s in adk.dashing.items()), "dashing replay differs")
        heads = dirs.replay_directions(bb.pinned)
        h = adk.heights
        upper = {e: e.u if h[e.u] > h[e.v] else e.v for e in adk.edges}
        expect(heads == upper, "direction trace replay differs")

    def close(self) -> None:
        self.trace_path.unlink(missing_ok=True)

    def figures(self):
        pipe = self.samples.get("pipeline", [])
        codec = self.samples.get("codec", [])
        return {
            "cli_pipeline_s": (median(pipe), "s", len(pipe)),
            "cli_codec_s": (median(codec), "s", len(codec)),
        }

    def layers(self, lt: LayerTimes):
        out = {f"cli.{c}.s": median(lt.per_call(f"cli.{c}"))
               for c in CLI_COMMANDS}
        out["cli.import.s"] = median(self.setup_times)
        return out


WORKLOADS = {w.name: w for w in (Ladder, Codec, Quotient16, Cli)}


def json_digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()
