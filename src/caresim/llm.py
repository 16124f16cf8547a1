"""Chat-completions HTTP backend for the text layer.

Works against any endpoint speaking the chat-completions wire convention
(POST {base_url}/chat/completions with a messages array). The credential
is read from an environment variable, never from the base URL, which must
carry no user name or password; ``HttpBackendConfig`` checks the base URL
(parsed once), model name, temperature, timeout and retry budget. Timeouts,
connection errors, server errors, and malformed replies are retried up to
the budget; every other non-2xx reply fails at once. Either way the
failure surfaces as a ``BackendError``. Replies are made one line on arrival.

The client holds one keep-alive connection for its lifetime, one
``simulate`` session. The standard library's ``http.client`` only opens it:
the TCP connect, the CONNECT tunnel through a proxy, and TLS. The client
speaks HTTP/1.1 on it itself. Each request leaves in one write, its head
byte for byte what ``http.client`` would send. Each reply is framed as RFC
9112 says (chunked, else Content-Length, else up to the close), with
``http.client``'s limits of 65536 bytes a line and 100 header fields; a
reply that breaks them, or any other framing fault, counts as a failed
connection. A connection the server closed between two calls is reopened
once without spending an attempt, and one the reply asks to close
(``Connection: close``, HTTP/1.0, or a body read up to the close) is
closed and the next call opens another.

Proxies are read from the environment (``http_proxy``, ``https_proxy``,
``all_proxy``, ``no_proxy``): an http endpoint is reached by sending the
absolute URL to the proxy, an https endpoint through a CONNECT tunnel;
only ``http://`` proxies are supported, and an https endpoint with an
IPv6 literal host cannot be tunnelled. TLS verifies certificates and host
names against the system trust store, which ``SSL_CERT_FILE`` and
``SSL_CERT_DIR`` override. Redirects are not followed: a 3xx reply is
rejected like a 4xx.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import random
import re
import ssl
import threading
import time
import urllib.request
from dataclasses import dataclass
from urllib.parse import unquote_to_bytes, urlsplit

from . import __version__
from .behavior import (
    BackendError,
    BehaviorText,
    InteractionContext,
    PerceivedState,
    PromptVariant,
    add_perception_noise,
    build_assist_messages,
    build_narrate_messages,
    build_perceive_messages,
)
from .config import ConfigError, read_integer, read_name, read_number
from .states import AssistAction, StatusVector

_DEFAULT_PORTS = {"http": 80, "https": 443}
_CONTROL_OR_SPACE = re.compile(r"[\x00-\x20\x7f]")
_HEADER_TEXT = re.compile(r"[\x20-\x7e\xa0-\xff]*")  # Latin-1 text, no control characters


def _split_http_url(url: str, what: str):
    """Split an http(s)://host[:port][/path] URL, rejecting anything else.

    Returns the parts, the host's IDNA A-label and the port to connect to,
    the scheme's default when the URL names none. ``http.client`` gets that
    port explicitly: given none, it would re-parse the port out of a
    bracketless IPv6 host. The request line is ASCII, so the path must be too.
    """
    shown = repr(_without_userinfo(url))
    if _CONTROL_OR_SPACE.search(url):
        raise ConfigError(f"{what} must not contain whitespace or control characters: {shown}")
    try:
        parts = urlsplit(url)
        port = parts.port
        # the socket layer encodes a non-ASCII host this way; fail here, not at the first request
        host = (parts.hostname or "").encode("idna").decode("ascii")
    except ValueError as exc:
        raise ConfigError(f"{what} has an invalid port or host ({exc}): {shown}") from exc
    if (parts.scheme not in _DEFAULT_PORTS or not parts.hostname or parts.query
            or parts.fragment):
        raise ConfigError(f"{what} must be an http(s)://host[:port][/path] URL, got {shown}")
    # IDNA maps some characters to a space; a '%' belongs only in an IPv6 literal's zone id
    if _CONTROL_OR_SPACE.search(host) or ("%" in host and ":" not in host):
        raise ConfigError(f"{what} host is neither a host name nor an IP literal: {shown}")
    if not parts.path.isascii():
        raise ConfigError(f"{what} path must be ASCII; percent-encode other characters: {shown}")
    return parts, host, _DEFAULT_PORTS[parts.scheme] if port is None else port


def _split_authority(url: str) -> tuple[str, str]:
    """The authority of ``url`` as ``urlsplit`` reads it, and what follows its end."""
    authority, *rest = re.split(r"[/?#]", url.partition("//")[2], maxsplit=1)
    return authority, "".join(rest)


def _without_userinfo(url: str) -> str:
    """``url`` without the ``user:password@`` that ``urlsplit`` would read from it, for messages."""
    return re.sub(r"(?<=//)[^/?#]*@", "", url, count=1)


def _excerpt(raw: bytes) -> str:
    """A reply body as a ``: '...'`` message suffix of at most 500 characters, or ''."""
    text = raw.decode("utf-8", errors="replace")[:500]
    return f": {text!r}" if text else ""


def _strip_zone(authority: str) -> str:
    """``authority`` without an IPv6 zone id, for the Host field; any port after the ``]`` stays."""
    head, percent, rest = authority.partition("%")
    return head + "]" + rest.partition("]")[2] if percent and head.startswith("[") else authority


# http.client's limits: the longest line of a reply and the most header fields it may carry
_MAX_LINE = 65536
_MAX_HEADERS = 100
_MAX_READ = 1 << 20  # a body is read in pieces this large, so a false length allocates no more
_STATUS_LINE = re.compile(rb"HTTP/1\.([0-9]) ([0-9]{3})(?: [^\r\n]*)?\r?\n")
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]+)[ \t]*(?:;[^\r\n]*)?\r?\n")


def _read_line(reader, what: str) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise http.client.LineTooLong(what)
    return line


def _read_fields(reader) -> dict[bytes, bytes]:
    """Header or trailer fields up to the blank line, by lower-case name; the first one wins."""
    fields: dict[bytes, bytes] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(reader, "header line")
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, _, value = line.partition(b":")
        fields.setdefault(name.strip().lower(), value.strip())
    raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")


def _read_exact(reader, size: int) -> bytes:
    pieces = []
    while size:
        piece = reader.read(min(size, _MAX_READ))
        if not piece:
            raise http.client.IncompleteRead(b"".join(pieces), size)
        pieces.append(piece)
        size -= len(piece)
    return b"".join(pieces)


def _read_chunked(reader) -> bytes:
    """A chunked body; chunk extensions and trailer fields are read and dropped."""
    chunks = []
    while True:
        line = _read_line(reader, "chunk size")
        match = _CHUNK_SIZE.fullmatch(line)
        if match is None:
            raise http.client.IncompleteRead(b"".join(chunks))
        size = int(match[1], 16)
        if not size:
            _read_fields(reader)
            return b"".join(chunks)
        chunk = _read_exact(reader, size + 2)
        if not chunk.endswith(b"\r\n"):
            raise http.client.HTTPException("chunk data not followed by CRLF")
        chunks.append(chunk[:-2])


def _read_reply(reader) -> tuple[int, bytes, bool]:
    """One reply: its status, its body, and whether the connection may carry the next request.

    Interim 1xx replies are skipped, except 101. The body is framed as RFC 9112 section 6
    says: none after 101, 204 and 304, else chunked, else Content-Length, else up to the close.
    """
    while True:
        line = _read_line(reader, "status line")
        if not line:
            raise http.client.RemoteDisconnected("Remote end closed connection without response")
        status_line = _STATUS_LINE.fullmatch(line)
        if status_line is None:
            raise http.client.BadStatusLine(f"malformed status line {line[:100]!r}")
        fields = _read_fields(reader)
        status = int(status_line[2])
        if not 100 <= status < 200 or status == 101:
            break
    connection = fields.get(b"connection", b"").lower()
    # HTTP/1.0 closes unless told otherwise; a 101 hands the connection to another protocol
    keep_open = (b"close" not in connection and status != 101
                 and (status_line[1] != b"0" or b"keep-alive" in connection))
    if status in (101, 204, 304):
        return status, b"", keep_open
    if fields.get(b"transfer-encoding", b"").lower() == b"chunked":
        return status, _read_chunked(reader), keep_open
    length = fields.get(b"content-length")
    if length is None:
        return status, reader.read(), False
    if not length.isdigit():
        raise http.client.HTTPException(f"invalid Content-Length {length[:100]!r}")
    return status, _read_exact(reader, int(length)), keep_open


_API_KEY_ENV = "CARESIM_API_KEY"  # the environment variable that holds the credential


def _api_key() -> str:
    key = os.environ.get(_API_KEY_ENV, "")
    if not key:
        raise ConfigError(f"HTTP backend selected but the credential variable {_API_KEY_ENV} is not set")
    if not _HEADER_TEXT.fullmatch(key):
        # it goes out in a header field; the message must not repeat it
        raise ConfigError(f"the credential in {_API_KEY_ENV} must be Latin-1 text "
                          "without control characters")
    return key


@dataclass(frozen=True)
class HttpBackendConfig:
    base_url: str
    model: str
    temperature: float = 0.7
    timeout_ms: int = 30000
    max_retries: int = 2

    def __post_init__(self) -> None:
        # before any check that echoes the URL: a password in it must reach no message or file
        if "@" in _split_authority(self.base_url)[0]:
            raise ConfigError("base URL must not contain a user name or password; the "
                              f"credential is read from the {_API_KEY_ENV} variable")
        # parsed once, for the client; not a field, so the manifest's asdict leaves it out
        object.__setattr__(self, "endpoint", _split_http_url(self.base_url, "base URL"))
        read_name(self.model, "model")
        if read_number(self.temperature, "temperature") < 0:
            raise ConfigError(f"temperature must be a finite number >= 0, got {self.temperature}")
        max_ms = threading.TIMEOUT_MAX * 1000  # the longest timeout a socket accepts
        if not 1 <= read_integer(self.timeout_ms, "timeout") <= max_ms:
            raise ConfigError(f"timeout must be >= 1 ms and <= {max_ms:.0f} ms, got {self.timeout_ms}")
        read_integer(self.max_retries, "max retries", minimum=0)


class ChatCompletionsClient:
    """Chat-completions client on one keep-alive connection, with a bounded retry budget."""

    def __init__(self, config: HttpBackendConfig):
        self.config = config
        self._timeout_s = config.timeout_ms / 1000.0
        # the request line, the Host field and the CONNECT line are ASCII: a non-ASCII host goes
        # as its IDNA A-label
        url, host, port = config.endpoint
        bracketed = f"[{host}]" if ":" in host else host
        target = url.path.rstrip("/") + "/chat/completions"
        host_field = _strip_zone(bracketed)
        if port != _DEFAULT_PORTS[url.scheme]:
            host_field += f":{port}"
        headers = {
            "Authorization": f"Bearer {_api_key()}",
            "Content-Type": "application/json",
            "User-Agent": f"caresim/{__version__}",
        }
        tls = ssl.create_default_context() if url.scheme == "https" else None

        proxies = urllib.request.getproxies()
        proxy = proxies.get(url.scheme) or proxies.get("all")
        if proxy and urllib.request.proxy_bypass(url.hostname):
            proxy = None
        if proxy is None:
            self._conn = self._connect(url.hostname, port, tls)
        else:
            proxy = proxy if "://" in proxy else "http://" + proxy
            if "@" in _split_authority(proxy)[1]:
                # a raw '/', '?' or '#' in the password ends the authority early: echo none of it
                raise ConfigError("proxy URL has an '@' after its host; percent-encode any '/', "
                                  "'?' or '#' in its user name or password")
            proxy_url, _, proxy_port = _split_http_url(proxy, "proxy URL")
            if proxy_url.scheme != "http":
                raise ConfigError("only http:// proxies are supported, got "
                                  f"{_without_userinfo(proxy)!r}")
            if tls is not None and ":" in url.hostname:
                # http.client writes the CONNECT line's host without the brackets an IPv6
                # literal needs
                raise ConfigError("an https base URL with an IPv6 literal host cannot be reached "
                                  "through a proxy; exempt it with no_proxy or use a host name")
            proxy_headers = {}
            if proxy_url.username is not None:
                # the percent-decoded bytes as they stand, whatever their encoding
                credentials = (unquote_to_bytes(proxy_url.username) + b":"
                               + unquote_to_bytes(proxy_url.password or ""))
                proxy_headers["Proxy-Authorization"] = (
                    "Basic " + base64.b64encode(credentials).decode("ascii"))
            self._conn = self._connect(proxy_url.hostname, proxy_port, tls)
            if tls is not None:
                self._conn.set_tunnel(host, port, headers=proxy_headers)
            else:
                authority = bracketed if url.port is None else f"{bracketed}:{url.port}"
                target = f"http://{authority}{target}"
                # the absolute URL's authority without its zone id; http.client cuts the port too
                host_field = _strip_zone(authority)
                headers.update(proxy_headers)
        # the request head as http.client writes it, split around the Content-Length value
        self._head = (f"POST {target} HTTP/1.1\r\nHost: {host_field}\r\n"
                      "Accept-Encoding: identity\r\nContent-Length: ").encode("ascii")
        self._tail = "".join(f"\r\n{name}: {value}" for name, value in headers.items()).encode(
            "latin-1") + b"\r\n\r\n"
        self._reader = None  # the buffered reader of the open connection's socket

    def _connect(self, host: str, port: int, tls: ssl.SSLContext | None):
        if tls is None:
            return http.client.HTTPConnection(host, port, timeout=self._timeout_s)
        return http.client.HTTPSConnection(host, port, timeout=self._timeout_s, context=tls)

    def complete(self, messages: list[dict]) -> str:
        payload = {
            "model": self.config.model,
            "messages": messages,
            "temperature": self.config.temperature,
        }
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        attempts = self.config.max_retries + 1
        last_error: BackendError | None = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(0.25 * 2 ** min(attempt - 1, 3))  # 0.25 s doubling up to 2 s
            try:
                status, raw = self._post(body)
            except TimeoutError as exc:
                last_error = BackendError(f"request timed out after {self._timeout_s:.1f}s")
                last_error.__cause__ = exc
                continue
            except (OSError, http.client.HTTPException) as exc:
                last_error = BackendError(f"connection failed: {exc}")
                continue
            if status >= 500:
                last_error = BackendError(f"server error {status}{_excerpt(raw)}")
                continue
            if not 200 <= status < 300:
                raise BackendError(f"request rejected with status {status}{_excerpt(raw)}")
            try:
                content = json.loads(raw)["choices"][0]["message"]["content"]
                if not isinstance(content, str):
                    raise TypeError("content is not a string")
                content.encode("utf-8")  # a lone surrogate, which no transcript can hold, raises
                return content
            except (ValueError, KeyError, IndexError, TypeError):
                last_error = BackendError(f"malformed completion reply{_excerpt(raw)}")
                continue
        assert last_error is not None
        raise last_error

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """One exchange on the kept-alive connection: (status, response body)."""
        request = b"%b%d%b%b" % (self._head, len(body), self._tail, body)
        reused = self._reader is not None
        try:
            try:
                status, raw, keep_open = self._exchange(request)
            except (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError):
                if not reused:
                    raise
                # the server closed the idle connection after the previous call
                self.close()
                status, raw, keep_open = self._exchange(request)
        except BaseException:
            self.close()
            raise
        if not keep_open:
            self.close()
        return status, raw

    def _exchange(self, request: bytes) -> tuple[int, bytes, bool]:
        """Send ``request`` in one write and read its reply, connecting first if need be."""
        conn = self._conn
        if self._reader is None:
            conn.connect()  # TCP, TCP_NODELAY, the CONNECT tunnel and TLS
            self._reader = conn.sock.makefile("rb")
        conn.sock.sendall(request)
        return _read_reply(self._reader)

    def close(self) -> None:
        """Close the connection and its reader; closing twice is harmless."""
        reader, self._reader = self._reader, None
        if reader is not None:
            reader.close()
        self._conn.close()


_BEHAVIOR_REPLY_RE = re.compile(
    r"Nonverbal:\s*(?P<nonverbal>.*?)\s*\nVerbal:\s*(?P<verbal>.*)", re.DOTALL
)
_VECTOR_REPLY_RE = re.compile(r"\[\s*([01])\s*,\s*([01])\s*,\s*([01])\s*,\s*([01])\s*\]")


def _one_line(text: str) -> str:
    """``text``'s stripped non-blank lines, joined by " / ", so it cannot start a line of its own."""
    return " / ".join(part.strip() for part in text.splitlines() if part.strip())


def parse_behavior_reply(text: str) -> BehaviorText:
    match = _BEHAVIOR_REPLY_RE.search(text)
    if match is None:
        raise BackendError("reply missing Nonverbal:/Verbal: lines" + (f": {text!r}" if text else ""))
    return BehaviorText(nonverbal=_one_line(match.group("nonverbal")), verbal=_one_line(match.group("verbal")))


def parse_vector_reply(text: str) -> StatusVector:
    match = _VECTOR_REPLY_RE.search(text)
    if match is None:
        raise BackendError(f"reply contains no binary state vector: {text!r}")
    return StatusVector(*(int(g) for g in match.groups()))


class HttpBackend:
    """Text-layer backend driven by a chat-completions endpoint."""

    def __init__(self, config: HttpBackendConfig):
        self.client = ChatCompletionsClient(config)

    def close(self) -> None:
        self.client.close()

    def narrate(self, state: StatusVector, ctx: InteractionContext) -> BehaviorText:
        reply = self.client.complete(build_narrate_messages(state, ctx))
        return parse_behavior_reply(reply)

    def perceive(
        self, behavior: BehaviorText, noise: float, rng: random.Random | None
    ) -> PerceivedState:
        reply = self.client.complete(build_perceive_messages(behavior))
        return add_perception_noise(parse_vector_reply(reply), noise, rng)

    def render_assist(
        self,
        action: AssistAction,
        ctx: InteractionContext,
        variant: PromptVariant,
        state: StatusVector,
    ) -> str:
        if action is AssistAction.NO_ASSISTANCE:
            return ""
        reply = self.client.complete(build_assist_messages(action, ctx, variant, state))
        return _one_line(reply)
