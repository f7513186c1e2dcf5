"""Loopback chat-completions server for the remote-loopback workload.

    python3 perfbench/loopback.py ANSWERS.jsonl DELAY_S

ANSWERS.jsonl is the replay log of a mock run of the same configuration.
Each POST is answered with the raw response that run recorded for the same
prompt, looked up by a sha256 of the system and user text, after holding
the request for DELAY_S seconds. One prompt in twenty, chosen by that hash,
gets a body holding no JSON value on its first attempt, so the client's
schema retry runs.

The server speaks HTTP/1.1 on an ephemeral port of 127.0.0.1, prints the
port on its first line, serves until its standard input closes, then prints
one JSON line of counts and exits: posts, connections that carried a post,
the peak number of requests held at once, the total time requests were
held, the bad first attempts sent, and prompts it had no answer for.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

RETRY_ONE_IN = 20
BAD_BODY = "Sorry, I need a moment before I can give a structured answer."


def prompt_key(system: str, user: str) -> str:
    return hashlib.sha256((system + "\x00" + user).encode("utf-8")).hexdigest()


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.posts = 0
        self.connections = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.held_s = 0.0
        self.bad_bodies = 0
        self.unknown = 0
        self.seen: set[str] = set()

    def as_dict(self) -> dict:
        return {"posts": self.posts, "connections": self.connections,
                "max_in_flight": self.max_in_flight, "held_s": self.held_s,
                "bad_bodies": self.bad_bodies, "unknown": self.unknown}


def make_handler(answers: dict[str, str], delay: float, stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        carried_post = False

        def log_message(self, fmt, *args):
            pass

        def do_POST(self):
            t0 = time.perf_counter()
            with stats.lock:
                stats.posts += 1
                if not self.carried_post:
                    stats.connections += 1
                stats.in_flight += 1
                stats.max_in_flight = max(stats.max_in_flight, stats.in_flight)
            self.carried_post = True
            try:
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                messages = {m["role"]: m["content"] for m in body["messages"]}
                key = prompt_key(messages["system"], messages["user"])
                with stats.lock:
                    first = key not in stats.seen
                    stats.seen.add(key)
                content = answers.get(key)
                if content is not None and first and int(key[:8], 16) % RETRY_ONE_IN == 0:
                    content = BAD_BODY
                    with stats.lock:
                        stats.bad_bodies += 1
                time.sleep(delay)
                if content is None:
                    with stats.lock:
                        stats.unknown += 1
                    self._reply(404, {"error": "no recorded answer for this prompt"})
                else:
                    self._reply(200, {"choices": [{"message": {"role": "assistant",
                                                               "content": content}}]})
            finally:
                with stats.lock:
                    stats.in_flight -= 1
                    stats.held_s += time.perf_counter() - t0

        def _reply(self, status: int, doc: dict):
            blob = json.dumps(doc).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(blob)))
            self.end_headers()
            self.wfile.write(blob)

    return Handler


def load_answers(path: str) -> dict[str, str]:
    answers = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            answers[prompt_key(record["system"], record["user"])] = record["raw_response"]
    return answers


def main(answers_path: str, delay: str) -> int:
    stats = Stats()
    handler = make_handler(load_answers(answers_path), float(delay), stats)
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    with stats.lock:
        print(json.dumps(stats.as_dict()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
