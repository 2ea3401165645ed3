#!/usr/bin/env python3
"""Adapter stub that answers its first request late.

The answer to the first request is held back until the second request
arrives; then both are written in order. A caller whose first call timed
out therefore reads a stale answer before its own. Scores as
adapter_stub.py does.
"""
import json
import sys

pending = []
for raw in sys.stdin:
    raw = raw.strip()
    if not raw:
        continue
    request = json.loads(raw)
    score = 0.1 if "fopen" in request["text"] else 0.9
    pending.append(json.dumps({"id": request["id"], "score": score}) + "\n")
    if request["id"] == 1:
        continue
    sys.stdout.write("".join(pending))
    sys.stdout.flush()
    pending.clear()
