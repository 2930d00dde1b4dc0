"""One benchmark process: a fresh interpreter that runs one pass of normord.

Usage: ``python3 child.py setup`` or ``python3 child.py '<job json>'``.

``setup`` imports ``normord.cli``, builds its parser and prints the
system-wide monotonic clock, so the parent can time the start-up.  A job
runs one workload pass and prints one JSON object: the monotonic time at
which the timed work ended, the peak RSS at that moment and the pass's
outputs (digests, counts, the verify report).  Correctness checks that are
not part of what a user waits for (the expand cross-check) run after the
end stamp.  With ``"trace": true`` the pass runs under ``tracer``.

Both kinds also report the mean rate, in probes per second, of a fixed probe
that ``SpeedMeter`` ran on this process's CPU while the timed work ran.
"""

import signal
import sys
import time

PROBE_INTERVAL_S = 0.01


class SpeedMeter:
    """Times a fixed pure-Python probe every 10 ms of wall time.

    The probe runs in a SIGALRM handler between the program's bytecodes, so
    it sees the CPU at the same moments as the program does.  One over a
    probe's duration is the host's speed at that moment, and the samples are
    evenly spaced in wall time, so their mean rate is the host's speed
    averaged over the timed work: wall time times that mean is the work done,
    in probe durations.  A median would drop the stretches spent at the less
    common speed.  One probe costs about 20 us, so the meter adds about 0.2%
    to the work.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._data = list(range(64))
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _probe(self, signum=None, frame=None) -> None:
        data = self._data
        start = time.perf_counter()
        total = 0
        for i in range(200):
            total += data[i & 63] * i
        self.samples.append(time.perf_counter() - start)

    def stop(self) -> float:
        """Stop probing and return the mean probe rate (1 / duration) in 1/s."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if not self.samples:
            self._probe()
        return sum(1 / s for s in self.samples) / len(self.samples)


def _setup(meter: SpeedMeter) -> None:
    import normord.cli

    normord.cli.build_parser()
    stamp = time.monotonic()
    print(stamp, meter.stop())


def main() -> None:
    meter = SpeedMeter()
    if sys.argv[1] == "setup":
        _setup(meter)
        return

    import hashlib
    import io
    import json
    import resource

    job = json.loads(sys.argv[1])
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(job["run_id"])
        tracing.install(tracer)
        tracer.begin()

    class HashingRaw(io.RawIOBase):
        """Byte sink that hashes and counts what the CLI prints."""

        def __init__(self, keep: bool):
            self.sha = hashlib.sha256()
            self.bytes = 0
            self.lines = 0
            self.kept = [] if keep else None

        def writable(self) -> bool:
            return True

        def write(self, data) -> int:
            chunk = bytes(data)
            self.sha.update(chunk)
            self.bytes += len(chunk)
            self.lines += chunk.count(b"\n")
            if self.kept is not None:
                self.kept.append(chunk)
            return len(chunk)

    def run_cli(argv, keep=False):
        import normord.cli

        raw = HashingRaw(keep)
        out = io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8", newline="\n")
        saved, sys.stdout = sys.stdout, out
        try:
            code = normord.cli.main(argv)
            out.flush()
        finally:
            sys.stdout = saved
        if tracer is not None:
            tracer.counts["cli.lines"] += raw.lines
            tracer.counts["cli.bytes"] += raw.bytes
        result = {"argv": argv, "exit": code, "sha256": raw.sha.hexdigest(),
                  "lines": raw.lines, "bytes": raw.bytes}
        if keep:
            result["text"] = b"".join(raw.kept).decode("utf-8")
        return result

    report: dict = {}
    mode = job["mode"]
    if mode == "verify":
        report["verify"] = run_cli(["verify", "--profile", job["profile"]], keep=True)
    elif mode == "stream":
        report["commands"] = [run_cli(argv) for argv in job["commands"]]
    elif mode == "expand":
        from normord.grammar import Grammar
        from normord.normal_form import normal_order_power
        from normord.poly import parse, variable

        forms = []
        renders = []
        for grammar_name, w_text, n in job["cases"]:
            nf = normal_order_power(parse(w_text), Grammar.preset(grammar_name), n)
            renders.append((nf.render(), nf.specialize(variable("q")).render()))
            forms.append(nf)
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    report["end"] = time.monotonic()
    report["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["probe_rate"] = meter.stop()
    if tracer is not None:
        tracer.end()
        report["trace"] = tracer.summary()
        tracer.write(job["spans"])

    if mode == "expand":
        # (w*D)^n applied to a grammar symbol t must equal t pushed n times
        # through t -> w*D(t); this is an independent path through derive.
        cases = []
        for nf, (text, at_q) in zip(forms, renders):
            agree = True
            for symbol in sorted(nf.grammar.rules):
                t = variable(symbol)
                iterated = t
                for _ in range(nf.order):
                    iterated = nf.multiplier * nf.grammar.derive(iterated)
                agree = agree and nf.apply_to(t) == iterated
            cases.append({
                "render_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                "specialize_sha256": hashlib.sha256(at_q.encode("utf-8")).hexdigest(),
                "cross_check": agree,
            })
        report["cases"] = cases

    json.dump(report, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
