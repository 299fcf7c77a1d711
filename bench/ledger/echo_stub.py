"""A line-protocol stub server that answers every request line at once.

It measures the load generator, not the program: against this stub the
generator's own ceiling (``gen.ceiling_rps``) shows, and with
``--stall-after N --stall-ms M`` it stalls once, after reading N
request lines, to test that queued requests are charged for the stall.

Run: ``python -m ledger.echo_stub [--stall-after N --stall-ms M]``;
prints ``listening <port>`` once bound, exits on SIGTERM or stdin EOF.
"""

from __future__ import annotations

import argparse
import selectors
import signal
import socket
import sys
import time

REPLY = b'{"ok": true, "distance": 0}\n'


def serve(stall_after: int, stall_ms: float) -> None:
    lsock = socket.socket()
    lsock.bind(("127.0.0.1", 0))
    lsock.listen(16)
    lsock.setblocking(False)
    sel = selectors.DefaultSelector()
    sel.register(lsock, selectors.EVENT_READ, None)
    sel.register(sys.stdin, selectors.EVENT_READ, "stdin")
    print(f"listening {lsock.getsockname()[1]}", flush=True)
    seen = 0
    stalled = stall_after < 0
    while True:
        for key, _ev in sel.select():
            if key.data == "stdin":
                if not sys.stdin.buffer.read1(1 << 12):
                    return
            elif key.data is None:
                conn, _addr = lsock.accept()
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sel.register(conn, selectors.EVENT_READ, "conn")
            else:
                conn = key.fileobj
                data = conn.recv(1 << 16)
                if not data:
                    sel.unregister(conn)
                    conn.close()
                    continue
                lines = data.count(b"\n")
                seen += lines
                if not stalled and seen > stall_after:
                    stalled = True
                    time.sleep(stall_ms / 1e3)
                conn.setblocking(True)
                conn.sendall(REPLY * lines)
                conn.setblocking(False)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stall-after", type=int, default=-1)
    ap.add_argument("--stall-ms", type=float, default=0.0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    serve(args.stall_after, args.stall_ms)


if __name__ == "__main__":
    main()
