//! NDJSON wire helpers shared by the server, the retrying client, and
//! the router front tier.
//!
//! The protocol's framing is one `\n`-terminated JSON line per message,
//! so every peer needs the same two primitives — a bounded line read
//! that cannot be ballooned by a hostile sender, and a one-write line
//! send — plus a portable timeout test (`read` on a socket with a
//! deadline fails as `WouldBlock` on Unix and `TimedOut` on Windows).

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// The default cap on one NDJSON line, bytes: the server's and router's
/// `max_line_bytes` default and the retrying client's reply cap.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Reads one `\n`-terminated line with a hard size cap. `Ok(None)` = EOF
/// before any byte. Reads byte-at-a-time through the caller's
/// `BufReader`, so the cap bounds memory, not throughput.
///
/// # Errors
///
/// `InvalidData` when the line exceeds `max_bytes`; otherwise the
/// underlying read error (including deadline expiry — see
/// [`is_timeout`]).
pub fn read_line_bounded<R: Read>(reader: &mut R, max_bytes: usize) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                return if line.is_empty() {
                    Ok(None)
                } else {
                    Ok(Some(String::from_utf8_lossy(&line).into_owned()))
                };
            }
            Ok(_) => {
                let [b] = byte;
                if b == b'\n' {
                    return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
                }
                if line.len() >= max_bytes {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "line exceeds the size cap",
                    ));
                }
                line.push(b);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Writes `line` plus the terminating newline in one `write_all`, so a
/// `TCP_NODELAY` socket sends the frame as one segment rather than two.
/// `TcpStream` is unbuffered, so there is nothing to flush.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn send_line(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    stream.write_all(format!("{line}\n").as_bytes())
}

/// `true` when an IO error is a socket deadline expiry.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn bounded_read_splits_lines_and_reports_eof() {
        let mut input = Cursor::new(b"alpha\nbeta".to_vec());
        assert_eq!(
            read_line_bounded(&mut input, 64).unwrap(),
            Some("alpha".to_string())
        );
        assert_eq!(
            read_line_bounded(&mut input, 64).unwrap(),
            Some("beta".to_string())
        );
        assert_eq!(read_line_bounded(&mut input, 64).unwrap(), None);
    }

    #[test]
    fn bounded_read_enforces_the_cap() {
        let mut input = Cursor::new(vec![b'x'; 100]);
        let err = read_line_bounded(&mut input, 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
