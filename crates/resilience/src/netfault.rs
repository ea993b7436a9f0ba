//! Deterministic fault injection for network streams.
//!
//! The checkpoint harness ([`crate::fault`]) proves the training loop
//! survives torn and corrupted *disk* writes; this module extends the same
//! count-based discipline to the *wire*, so a serving stack can prove in
//! tests that misbehaving clients and flaky links yield clean error
//! responses — never a hung thread or a poisoned queue.
//!
//! Faults fire by operation count (the Nth read or write on the stream),
//! never by wall-clock, so every drill reproduces bit for bit. The typical
//! test wraps a *client-side* `TcpStream` in a [`FaultyStream`] and drives a
//! real server through it:
//!
//! * [`NetFault::PartialWrite`] — the Nth write sends only a prefix and then
//!   reports `BrokenPipe`, like a peer that died mid-request;
//! * [`NetFault::Disconnect`] — the Nth read sees EOF, like a mid-response
//!   hangup;
//! * [`NetFault::CorruptByte`] — the Nth write flips a byte in flight,
//!   producing a corrupt frame on the other side;
//! * [`NetFault::Chunked`] — every write is capped to a byte budget, the
//!   building block of a slow-loris drill (the test adds the pacing; the
//!   chunking itself stays deterministic).

use std::io::{self, Read, Write};

/// One injected network fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetFault {
    /// The `nth` write (1-based) delivers only the first `at_byte` bytes to
    /// the peer, then fails with `BrokenPipe`. Later writes fail the same
    /// way — a broken connection stays broken.
    PartialWrite {
        /// 1-based index of the write to break.
        nth: u64,
        /// Bytes that make it onto the wire before the "crash".
        at_byte: usize,
    },
    /// The `nth` read (1-based) — and every read after it — reports EOF
    /// (`Ok(0)`), as if the peer closed the connection mid-response.
    Disconnect {
        /// 1-based index of the read that sees the hangup.
        nth: u64,
    },
    /// The `nth` write (1-based) delivers all its bytes, but with the byte
    /// at `offset` XOR-ed with `mask` — a corrupt frame.
    CorruptByte {
        /// 1-based index of the write to damage.
        nth: u64,
        /// Byte offset to corrupt (clamped into the buffer if out of range).
        offset: usize,
        /// XOR mask applied to the byte (0 disables the flip).
        mask: u8,
    },
    /// Every write delivers at most `max_bytes` bytes (the caller's write
    /// loop turns one logical send into many tiny ones). Combined with
    /// test-side pacing this is a slow-loris client.
    Chunked {
        /// Upper bound on bytes per write (clamped to ≥ 1).
        max_bytes: usize,
    },
}

/// A deterministic schedule of [`NetFault`]s for one stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetFaultPlan {
    faults: Vec<NetFault>,
}

impl NetFaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        NetFaultPlan::default()
    }

    /// Add a fault to the schedule.
    pub fn with(mut self, fault: NetFault) -> Self {
        self.faults.push(fault);
        self
    }

    fn write_cap(&self) -> Option<usize> {
        self.faults.iter().find_map(|f| match f {
            NetFault::Chunked { max_bytes } => Some((*max_bytes).max(1)),
            _ => None,
        })
    }

    fn partial_write(&self, nth: u64) -> Option<usize> {
        self.faults.iter().find_map(|f| match f {
            // Only the breaking write delivers a prefix; once broken, later
            // writes fail without touching the wire.
            NetFault::PartialWrite { nth: n, at_byte } if *n <= nth => {
                Some(if *n == nth { *at_byte } else { 0 })
            }
            _ => None,
        })
    }

    fn disconnected_read(&self, nth: u64) -> bool {
        self.faults.iter().any(|f| match f {
            NetFault::Disconnect { nth: n } => *n <= nth,
            _ => false,
        })
    }

    fn corruption(&self, nth: u64) -> Option<(usize, u8)> {
        self.faults.iter().find_map(|f| match f {
            NetFault::CorruptByte {
                nth: n,
                offset,
                mask,
            } if *n == nth => Some((*offset, *mask)),
            _ => None,
        })
    }
}

/// Wraps any `Read + Write` stream (typically a client `TcpStream`) and
/// applies a [`NetFaultPlan`] to its operations, counting reads and writes
/// independently. The wrapped stream sees exactly the bytes a really faulty
/// peer would have produced.
pub struct FaultyStream<S> {
    inner: S,
    plan: NetFaultPlan,
    reads: u64,
    writes: u64,
}

impl<S> FaultyStream<S> {
    /// Wrap `inner`, scheduling the faults in `plan`.
    pub fn new(inner: S, plan: NetFaultPlan) -> Self {
        FaultyStream {
            inner,
            plan,
            reads: 0,
            writes: 0,
        }
    }

    /// Writes attempted so far (including failed ones).
    pub fn writes_attempted(&self) -> u64 {
        self.writes
    }

    /// Reads attempted so far (including ones answered with injected EOF).
    pub fn reads_attempted(&self) -> u64 {
        self.reads
    }

    /// The wrapped stream (for shutdown/cleanup in tests).
    pub fn get_ref(&self) -> &S {
        &self.inner
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        let nth = self.writes;
        if let Some(at_byte) = self.plan.partial_write(nth) {
            // Matching the real failure mode: a prefix may land, then the
            // connection is dead for good.
            if at_byte > 0 && !buf.is_empty() {
                let n = at_byte.min(buf.len());
                self.inner.write_all(&buf[..n])?;
                let _ = self.inner.flush();
            }
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                format!("injected partial write on write {nth}"),
            ));
        }
        let cap = self.plan.write_cap().unwrap_or(usize::MAX);
        let end = buf.len().min(cap);
        match self.plan.corruption(nth) {
            Some((offset, mask)) if end > 0 => {
                let mut corrupted = buf[..end].to_vec();
                let i = offset.min(corrupted.len() - 1);
                corrupted[i] ^= mask;
                self.inner.write_all(&corrupted)?;
                Ok(end)
            }
            _ => self.inner.write(&buf[..end]),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        if self.plan.disconnected_read(self.reads) {
            return Ok(0);
        }
        self.inner.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// An in-memory sink that records everything written to it.
    #[derive(Default)]
    struct Sink(Vec<u8>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_write_delivers_prefix_then_breaks_for_good() {
        let plan = NetFaultPlan::none().with(NetFault::PartialWrite { nth: 2, at_byte: 3 });
        let mut s = FaultyStream::new(Sink::default(), plan);
        assert_eq!(s.write(b"GET /").unwrap(), 5);
        let err = s.write(b"healthz").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        // The connection stays broken on later writes too.
        assert!(s.write(b"more").is_err());
        assert_eq!(s.writes_attempted(), 3);
        assert_eq!(&s.get_ref().0, b"GET /hea");
    }

    #[test]
    fn disconnect_turns_reads_into_eof() {
        let data = Cursor::new(b"HTTP/1.1 200 OK\r\n".to_vec());
        let plan = NetFaultPlan::none().with(NetFault::Disconnect { nth: 2 });
        let mut s = FaultyStream::new(data, plan);
        let mut buf = [0u8; 4];
        assert_eq!(s.read(&mut buf).unwrap(), 4);
        assert_eq!(s.read(&mut buf).unwrap(), 0, "second read sees the hangup");
        assert_eq!(s.read(&mut buf).unwrap(), 0, "the peer stays gone");
        assert_eq!(s.reads_attempted(), 3);
    }

    #[test]
    fn corrupt_byte_flips_in_flight() {
        let plan = NetFaultPlan::none().with(NetFault::CorruptByte {
            nth: 1,
            offset: 0,
            mask: 0x20,
        });
        let mut s = FaultyStream::new(Sink::default(), plan);
        assert_eq!(s.write(b"GET").unwrap(), 3);
        assert_eq!(&s.get_ref().0, b"gET", "G ^ 0x20 = g");
        // Only the scheduled write is damaged.
        assert_eq!(s.write(b" /x").unwrap(), 3);
        assert_eq!(&s.get_ref().0, b"gET /x");
    }

    #[test]
    fn corrupt_byte_offset_is_clamped() {
        let plan = NetFaultPlan::none().with(NetFault::CorruptByte {
            nth: 1,
            offset: 999,
            mask: 0x01,
        });
        let mut s = FaultyStream::new(Sink::default(), plan);
        assert_eq!(s.write(b"xyz").unwrap(), 3);
        assert_eq!(s.get_ref().0, vec![b'x', b'y', b'z' ^ 0x01]);
    }

    #[test]
    fn chunked_caps_every_write() {
        let plan = NetFaultPlan::none().with(NetFault::Chunked { max_bytes: 2 });
        let mut s = FaultyStream::new(Sink::default(), plan);
        // A write_all loop degenerates into ceil(11/2) = 6 tiny writes.
        s.write_all(b"GET /a HTTP").unwrap();
        assert_eq!(&s.get_ref().0, b"GET /a HTTP");
        assert_eq!(s.writes_attempted(), 6);
        // The cap is clamped to at least one byte so loops always progress.
        let mut s = FaultyStream::new(
            Sink::default(),
            NetFaultPlan::none().with(NetFault::Chunked { max_bytes: 0 }),
        );
        s.write_all(b"ab").unwrap();
        assert_eq!(s.writes_attempted(), 2);
    }

    #[test]
    fn empty_plan_passes_through() {
        let mut s = FaultyStream::new(Sink::default(), NetFaultPlan::none());
        s.write_all(b"hello").unwrap();
        s.flush().unwrap();
        assert_eq!(&s.get_ref().0, b"hello");
        let mut r = FaultyStream::new(Cursor::new(b"abc".to_vec()), NetFaultPlan::none());
        let mut buf = Vec::new();
        r.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"abc");
    }
}
