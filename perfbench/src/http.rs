//! A minimal HTTP/1.1 client: one-shot requests on their own connection
//! (`connection: close`) for the open loop, and keep-alive connections for
//! the closed loop.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long any single request may take before it counts as a transport
/// failure.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// The server will close the connection after this response.
    pub close: bool,
}

/// The exact bytes of a request for `target`.
pub fn request_bytes(method: &str, target: &str, close: bool) -> Vec<u8> {
    let mut req = format!("{method} {target} HTTP/1.1\r\nhost: 127.0.0.1\r\n");
    if method == "POST" {
        req.push_str("content-length: 0\r\n");
    }
    if close {
        req.push_str("connection: close\r\n");
    }
    req.push_str("\r\n");
    req.into_bytes()
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(IO_TIMEOUT))?;
    s.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(s)
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads one response off a connection.
pub fn read_reply(r: &mut impl BufRead) -> io::Result<Reply> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
    let mut length = None;
    let mut close = false;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("EOF inside response headers".into()));
        }
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let length = length.ok_or_else(|| bad("response without content-length".into()))?;
    let mut body = vec![0; length];
    r.read_exact(&mut body)?;
    Ok(Reply {
        status,
        body,
        close,
    })
}

/// Sends one request on a fresh connection and closes it.
pub fn one_shot(addr: SocketAddr, method: &str, target: &str) -> io::Result<Reply> {
    let mut stream = connect(addr)?;
    stream.write_all(&request_bytes(method, target, true))?;
    read_reply(&mut BufReader::new(stream))
}

/// A keep-alive connection that reconnects when the server closes it.
pub struct KeepAlive {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    /// Connections opened so far.
    pub opened: usize,
}

impl KeepAlive {
    /// A client for `addr`; connects lazily.
    pub fn new(addr: SocketAddr) -> Self {
        KeepAlive {
            addr,
            conn: None,
            opened: 0,
        }
    }

    /// `GET target` on the open connection (opening one if needed).
    pub fn get(&mut self, target: &str) -> io::Result<Reply> {
        if self.conn.is_none() {
            let s = connect(self.addr)?;
            let r = BufReader::new(s.try_clone()?);
            self.conn = Some((s, r));
            self.opened += 1;
        }
        let (w, r) = self.conn.as_mut().expect("connection opened above");
        let result = w
            .write_all(&request_bytes("GET", target, false))
            .and_then(|()| read_reply(r));
        match &result {
            Ok(reply) if !reply.close => {}
            _ => self.conn = None,
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response_and_its_connection_header() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}";
        let reply = read_reply(&mut &raw[..]).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, b"{}");
        assert!(reply.close);
    }

    #[test]
    fn request_bytes_parse_with_the_servers_reader() {
        let bytes = request_bytes("GET", "/v1/similar?company=3&k=10", true);
        let req = hlm_serve::http::read_request(&mut &bytes[..]).unwrap();
        assert_eq!(req.path, "/v1/similar");
        assert_eq!(req.param("company"), Some("3"));
        assert!(req.wants_close());
    }
}
