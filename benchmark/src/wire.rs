//! The client side of probdb's line protocol: one command per line out, one
//! dot-terminated, dot-stuffed frame back. Written against the wire format
//! rather than by calling the server's own `read_framed`, so that the
//! benchmark sees the protocol the way any outside client does (and reuses
//! its buffers between the tens of thousands of calls a run makes).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Reads one frame into `out` (cleared first), un-stuffing dots. `false`
/// means the peer closed the stream before the terminating `.` line.
pub fn read_frame(
    reader: &mut impl BufRead,
    line: &mut String,
    out: &mut String,
) -> io::Result<bool> {
    out.clear();
    loop {
        line.clear();
        if reader.read_line(line)? == 0 {
            return Ok(false);
        }
        let text = line.trim_end_matches(['\n', '\r']);
        if text == "." {
            return Ok(true);
        }
        out.push_str(text.strip_prefix('.').unwrap_or(text));
        out.push('\n');
    }
}

/// One protocol session.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    reply: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A reply that takes this long is a hung server, not a slow query:
        // the server's own per-query budget is 10 s.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
            reply: String::new(),
        })
    }

    /// Sends one command and waits for its frame's terminating `.`.
    pub fn call(&mut self, command: &str) -> io::Result<&str> {
        self.line.clear();
        self.line.push_str(command);
        self.line.push('\n');
        self.writer.write_all(self.line.as_bytes())?;
        if !read_frame(&mut self.reader, &mut self.line, &mut self.reply)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-frame",
            ));
        }
        Ok(&self.reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probdb::server::protocol::write_framed;

    #[test]
    fn frame_reader_round_trips_write_framed() {
        let payloads = [
            "",
            "p = 0.500000  (engine: Lifted)\n",
            ".\n",
            "..\n.leading dot\nplain\n.\n",
            "x = 1    p = 0.250000\nx = 2    p = 0.125000\n",
        ];
        let mut wire = Vec::new();
        for p in payloads {
            write_framed(&mut wire, p).unwrap();
        }
        let mut reader = io::Cursor::new(wire);
        let (mut line, mut out) = (String::new(), String::new());
        for p in payloads {
            assert!(read_frame(&mut reader, &mut line, &mut out).unwrap());
            assert_eq!(out, p);
        }
        assert!(
            !read_frame(&mut reader, &mut line, &mut out).unwrap(),
            "EOF"
        );
    }

    #[test]
    fn truncated_frame_reads_as_closed() {
        let mut reader = io::Cursor::new(b"p = 1\n".to_vec());
        let (mut line, mut out) = (String::new(), String::new());
        assert!(!read_frame(&mut reader, &mut line, &mut out).unwrap());
    }
}
