#!/usr/bin/env python3
"""Adapter stub whose answers bend the {"id", "score"} types.

The first argument picks the answer to every request:

  bool-id       {"id": true, "score": 0.7}    true compares equal to 1
  string-score  {"id": <id>, "score": "0.7"}
  bool-score    {"id": <id>, "score": true}
"""
import json
import sys

REPLIES = {
    "bool-id": lambda request_id: {"id": True, "score": 0.7},
    "string-score": lambda request_id: {"id": request_id, "score": "0.7"},
    "bool-score": lambda request_id: {"id": request_id, "score": True},
}

reply = REPLIES[sys.argv[1]]
for raw in sys.stdin:
    raw = raw.strip()
    if not raw:
        continue
    request = json.loads(raw)
    sys.stdout.write(json.dumps(reply(request["id"])) + "\n")
    sys.stdout.flush()
