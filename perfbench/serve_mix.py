"""serve_mixed workload: the seeded request mix and the closed-loop socket
client that drives `gpowerctl serve --socket`.

The mix, per client, is 75% distinct single static scenarios (n=64-128,
one seed, sampled, cycling sizes, dtypes, tile counts and pattern
families), 20% repeats of a line that client already finished (served by
the engine cache), 5% two-point campaigns and 5% calibrate -> grid ->
reduce dags.  Half of the distinct static lines are written into the
result store before the timed run, so they are served as store hits.
Every distinct line has its own base_seed, so the exact engine and store
counts follow from the mix alone (perfbench/baseline.json pins them).
"""

import json
import random
import socket
import threading
import time

DTYPES = ["fp32", "fp16", "fp16t", "int8"]
SIZES = [64, 64, 96, 128]


FAMILIES = 7
CLIENTS = 2


def _pattern(rng, family=None):
    if family is None:
        family = rng.randrange(FAMILIES)
    if family == 0:
        return "gaussian(mean=%d, sigma=%d)" % (rng.randrange(-50, 51), rng.randrange(20, 300))
    if family == 1:
        return "gaussian() | sparsity(%d%%)" % rng.randrange(5, 95)
    if family == 2:
        return "gaussian() | sort_rows(%d%%)" % rng.randrange(5, 100)
    if family == 3:
        return "set(size=%d)" % rng.randrange(2, 64)
    if family == 4:
        return "gaussian() | zero_lsb(%.2f)" % rng.uniform(0.05, 0.9)
    if family == 5:
        return "gaussian() | flip_bits(%.2f)" % rng.uniform(0.05, 0.9)
    return "constant()"


def _experiment(rng, base_seed, n=None, dtype=None, pattern=None):
    return {
        "dtype": dtype or rng.choice(DTYPES),
        "n": n or rng.choice(SIZES),
        "seeds": 1,
        "base_seed": base_seed,
        "pattern": pattern or _pattern(rng),
        "sampling": {"tiles": rng.choice([4, 6, 8]), "k_fraction": 0.5},
    }


def _line(doc):
    return json.dumps(doc, separators=(",", ":"))


class Mix:
    """Request lines and per-client index sequences.

    The shares are exact per client (stratified, then shuffled), and the
    sizes, dtypes, tile counts and pattern families of the distinct static
    lines cycle through fixed lists, so every seed asks for about the same
    amount of work; the seed picks the order and the pattern values.
    """

    def __init__(self, seed, requests_per_client):
        rng = random.Random(seed)
        next_seed = [seed * 1000003 + 1]

        def fresh():
            next_seed[0] += 1
            return next_seed[0]

        self.lines = []          # global request index -> request line
        self.preseed = []        # lines written to the store before timing
        self.clients = [[] for _ in range(CLIENTS)]
        for c in range(CLIENTS):
            repeats = requests_per_client // 5
            campaigns = dags = requests_per_client // 20
            statics = requests_per_client - repeats - campaigns - dags
            kinds = (["static"] * statics + ["repeat"] * repeats
                     + ["campaign"] * campaigns + ["dag"] * dags)
            rng.shuffle(kinds)
            # A repeat needs a finished line before it: move the first
            # computed static in front of any leading repeats.
            preseeded = [i < statics // 2 for i in range(statics)]
            rng.shuffle(preseeded)
            first = next(i for i, k in enumerate(kinds) if k == "static")
            kinds.insert(0, kinds.pop(first))
            if preseeded[0]:
                preseeded[preseeded.index(False)] = True
                preseeded[0] = False
            shapes = [(n, dtype, tiles) for tiles in (4, 6, 8)
                      for dtype in DTYPES for n in SIZES]
            shapes = [shape + (i % FAMILIES,) for i, shape in enumerate(
                (shapes * (statics // len(shapes) + 1))[:statics])]
            rng.shuffle(shapes)
            grid_dtypes = DTYPES * (campaigns + dags)
            finished = []  # this client's computed static lines
            for kind in kinds:
                if kind == "repeat":
                    line = rng.choice(finished)
                elif kind == "campaign":
                    base = {"scenario": "static",
                            "experiment": _experiment(rng, fresh(), n=64)}
                    dtypes = [grid_dtypes.pop(), grid_dtypes.pop()]
                    line = _line({"scenario": "campaign", "name": "mix",
                                  "base": base,
                                  "axes": [{"field": "experiment.dtype",
                                            "values": dtypes}]})
                elif kind == "dag":
                    grid_base = {"scenario": "static",
                                 "experiment": _experiment(
                                     rng, fresh(), n=64, dtype=grid_dtypes.pop())}
                    patterns = [_pattern(rng)]
                    while len(patterns) < 2:
                        p = _pattern(rng)
                        if p not in patterns:
                            patterns.append(p)
                    calibrate = {"scenario": "static",
                                 "experiment": dict(grid_base["experiment"],
                                                    base_seed=fresh())}
                    line = _line({"scenario": "dag", "name": "mix", "nodes": [
                        {"name": "calibrate", "run": calibrate},
                        {"name": "grid", "run": {
                            "scenario": "campaign", "name": "grid",
                            "base": grid_base,
                            "axes": [{"field": "experiment.pattern",
                                      "values": patterns}]}},
                        {"name": "regret", "reduce": {
                            "op": "regret", "over": "grid",
                            "baseline": "calibrate", "metric": "power_w"}}]})
                else:
                    n, dtype, tiles, family = shapes.pop()
                    experiment = _experiment(rng, fresh(), n=n, dtype=dtype,
                                             pattern=_pattern(rng, family))
                    experiment["sampling"]["tiles"] = tiles
                    line = _line({"scenario": "static", "experiment": experiment})
                    if preseeded.pop(0):
                        self.preseed.append(line)
                    else:
                        finished.append(line)
                self.clients[c].append(len(self.lines))
                self.lines.append(line)


def connect(path, deadline):
    """Connects to a Unix socket, retrying until the server listens."""
    while True:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            return s
        except OSError:
            s.close()
            if time.monotonic() > deadline:
                raise
            time.sleep(0.0005)


class Connection:
    def __init__(self, path, deadline):
        self.sock = connect(path, deadline)
        self.reader = self.sock.makefile("rb")
        self.bytes_read = 0

    def send(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def event(self):
        raw = self.reader.readline()
        if not raw:
            raise ConnectionError("serve closed the connection")
        self.bytes_read += len(raw)
        return raw.decode().rstrip("\n")

    def stats(self):
        self.send('{"cmd":"stats"}')
        while True:
            doc = json.loads(self.event())
            if doc.get("type") == "stats":
                return doc

    def close(self):
        self.reader.close()
        self.sock.close()


class ClosedLoop:
    """Each client sends its next line only after the previous line's done
    (or error) event; timestamps are taken around every event."""

    def __init__(self, mix, sock_path, on_progress):
        self.mix = mix
        self.sock_path = sock_path
        self.on_progress = on_progress
        self.events = {}     # global index -> raw event lines
        self.timing = {}     # global index -> (accepted, first result, done) ms
        self.bytes_read = 0
        self.errors = []
        self.first_write = None
        self.lock = threading.Lock()

    def _client(self, indices):
        conn = Connection(self.sock_path, time.monotonic() + 30)
        try:
            for req, index in enumerate(indices, start=1):
                t0 = time.monotonic()
                with self.lock:
                    if self.first_write is None or t0 < self.first_write:
                        self.first_write = t0
                conn.send(self.mix.lines[index])
                lines, accepted, first = [], None, None
                while True:
                    raw = conn.event()
                    t = (time.monotonic() - t0) * 1e3
                    doc = json.loads(raw)
                    if doc.get("req") != req:
                        raise ValueError("event for req %s while waiting on %d"
                                         % (doc.get("req"), req))
                    lines.append(raw)
                    kind = doc["type"]
                    if kind == "accepted" and accepted is None:
                        accepted = t
                    elif kind in ("result", "node") and first is None:
                        first = t
                    if kind in ("done", "error"):
                        break
                self.events[index] = lines
                self.timing[index] = (accepted, first, t)
                self.on_progress()
        except Exception as e:  # noqa: BLE001 - reported as a failed run
            self.errors.append("client: %s" % e)
        finally:
            with self.lock:
                self.bytes_read += conn.bytes_read
            conn.close()

    def run(self):
        threads = [threading.Thread(target=self._client, args=(indices,))
                   for indices in self.mix.clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.monotonic()
