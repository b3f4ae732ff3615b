"""Drive the serving layer over HTTP, end to end, in one process.

Starts a ``TransformService`` (the same thing ``python -m repro.serve``
runs) behind the stdlib JSON front end on an ephemeral port, then acts
as a swarm of HTTP clients: concurrent transform requests that the
service coalesces into shared micro-batches, a join request, a repeat
request served from the memoized result cache, and a stats read.

Run:  python examples/serve_client.py
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

from repro.core.pipeline import DTTPipeline
from repro.serve.http import start_http_server
from repro.serve.service import TransformService
from repro.surrogate.pretrained import PretrainedDTT

EXAMPLES = [
    ["Justin Trudeau", "jtrudeau"],
    ["Stephen Harper", "sharper"],
    ["Paul Martin", "pmartin"],
]
SOURCES = ["Jean Chretien", "Kim Campbell", "Brian Mulroney"]
TARGETS = [
    "jtrudeau", "sharper", "pmartin", "jchretien", "kcampbell", "bmulroney",
]


def post(base: str, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        base + path,
        json.dumps(payload).encode("utf-8"),
        {"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response)


def main() -> None:
    service = TransformService(
        DTTPipeline(PretrainedDTT(), seed=0), max_wait_ms=5.0
    )
    server = start_http_server(service)  # port 0 = pick a free one
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    print(f"service up at {base}\n")

    print("8 concurrent clients, coalesced into shared micro-batches:")
    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [
            pool.submit(
                post,
                base,
                "/v1/transform",
                {"sources": [source], "examples": EXAMPLES},
            )
            for source in SOURCES * 2
        ]
        for future in futures[: len(SOURCES)]:
            prediction = future.result()["predictions"][0]
            print(f"  {prediction['source']:18s} -> {prediction['value']}")

    print("\nA join request (Eq. 5 against the target column):")
    joined = post(
        base,
        "/v1/join",
        {"sources": SOURCES, "targets": TARGETS, "examples": EXAMPLES},
    )
    for row in joined["results"]:
        print(f"  {row['source']:18s} -> {row['matched']} (d={row['distance']})")

    print("\nThe same join again — served from the memoized result cache:")
    started = time.perf_counter()
    post(
        base,
        "/v1/join",
        {"sources": SOURCES, "targets": TARGETS, "examples": EXAMPLES},
    )
    print(f"  replay took {(time.perf_counter() - started) * 1000:.1f} ms")

    with urllib.request.urlopen(base + "/v1/stats") as response:
        stats = json.load(response)
    print(
        f"\nstats: {stats['requests']} requests in {stats['batches']} "
        f"batches, {stats['cache_hits']} cache hits / "
        f"{stats['cache_misses']} misses"
    )

    server.shutdown()
    server.server_close()
    service.close()
    print("clean shutdown complete")


if __name__ == "__main__":
    main()
