#!/usr/bin/env python3
"""Line-scoring stub speaking the adapter protocol on stdin/stdout.

Reads {"id", "text"} JSON lines and answers {"id", "score"}; lines that
mention fopen score 0.1 (suspicious), everything else 0.9. Given a count N
as its argument, it exits after its Nth answer.
"""
import json
import sys

limit = int(sys.argv[1]) if len(sys.argv) > 1 else None
answered = 0
for raw in sys.stdin:
    raw = raw.strip()
    if not raw:
        continue
    request = json.loads(raw)
    score = 0.1 if "fopen" in request["text"] else 0.9
    sys.stdout.write(json.dumps({"id": request["id"], "score": score}) + "\n")
    sys.stdout.flush()
    answered += 1
    if answered == limit:
        break
