"""A stdlib HTTP/JSON echo server: the serving half of fleet-stream's reference.

Usage (spawned by ``fleet_stream.py``, not by hand)::

    python3 perfbench/reference_server.py READY_FILE

Serves keep-alive ``POST`` requests on an ephemeral loopback port, which
it writes to ``READY_FILE``, answering each with a small JSON document
built from the request body.  It shares no code with the program, so a
round trip to it costs the same on every commit and moves only with the
machine: the asyncio, socket, context-switch and JSON work a fleet hop
also does.  It runs until its stdin closes.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path


async def _serve_connection(reader, writer) -> None:
    try:
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            marker = head.index(b"Content-Length: ") + 16
            body = await reader.readexactly(int(head[marker:head.index(b"\r", marker)]))
            request = json.loads(body)
            reply = json.dumps(
                {"kind": request["kind"], "totals": [float(len(request["placements"]))]}
            ).encode()
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {len(reply)}\r\n\r\n".encode()
                + reply
            )
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def main(ready: Path) -> None:
    server = await asyncio.start_server(_serve_connection, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    ready.with_suffix(".tmp").write_text(json.dumps({"port": port}))
    ready.with_suffix(".tmp").rename(ready)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.read)
    server.close()
    await server.wait_closed()


if __name__ == "__main__":
    asyncio.run(main(Path(sys.argv[1])))
