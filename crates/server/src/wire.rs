//! Length-prefixed framing over any byte stream.
//!
//! Every message — client↔server and server↔worker alike — travels as one
//! frame:
//!
//! ```text
//! ┌──────────────┬──────────────────┬──────────────┐
//! │ magic (4 B)  │ length (4 B, BE) │ payload      │
//! │ "LVS" 0x01   │ payload bytes    │ JSON message │
//! └──────────────┴──────────────────┴──────────────┘
//! ```
//!
//! The magic doubles as the *wire* version (the trailing byte); the JSON
//! payload carries its own *schema* version through the `Hello` handshake.
//! A reader rejects bad magic, oversized declarations and truncated
//! payloads with typed errors and never panics, so a malformed peer costs
//! one connection, not the server.

use std::io::{Read, Write};

/// Frame magic: `LVS` plus wire-format version 1.
pub const MAGIC: [u8; 4] = [b'L', b'V', b'S', 0x01];

/// The default ceiling on payload size. A threshold surface over thousands
/// of cells serializes to a few hundred kilobytes; 16 MiB is generous
/// headroom while still bounding a hostile length declaration.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the stream cleanly between frames.
    Eof,
    /// A read timeout expired between frames (only on streams with a read
    /// timeout set). The stream is intact; the caller may retry.
    Idle,
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The frame did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The declared payload length exceeds the reader's limit.
    Oversized(u32),
    /// The stream ended inside a declared payload.
    Truncated,
    /// The payload was not a valid message.
    Codec(serde::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Eof => write!(f, "peer closed the connection"),
            WireError::Idle => write!(f, "read timeout expired between frames"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::Oversized(len) => write!(f, "declared frame length {len} exceeds the limit"),
            WireError::Truncated => write!(f, "stream ended inside a frame payload"),
            WireError::Codec(e) => write!(f, "malformed payload: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes one frame.
///
/// Header and payload go out in a single `write_all`: on an unbuffered
/// socket separate writes cost a syscall each, and on TCP a header sent
/// apart from its payload can stall on Nagle's algorithm against the peer's
/// delayed ACK.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(payload.len() as u32));
    }
    let mut frame = Vec::with_capacity(MAGIC.len() + 4 + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame, enforcing `max_bytes` on the declared payload length.
///
/// A clean close *between* frames reads as [`WireError::Eof`]; a close
/// inside the header or payload reads as [`WireError::Truncated`].
pub fn read_frame<R: Read>(reader: &mut R, max_bytes: usize) -> Result<Vec<u8>, WireError> {
    let mut magic = [0u8; 4];
    read_exact_or(reader, &mut magic, true)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let mut len_bytes = [0u8; 4];
    read_exact_or(reader, &mut len_bytes, false)?;
    let len = u32::from_be_bytes(len_bytes);
    if len as usize > max_bytes {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or(reader, &mut payload, false)?;
    Ok(payload)
}

/// `read_exact` that distinguishes a clean pre-frame close (`Eof`, when
/// `at_boundary` and no byte has arrived yet) from a mid-frame one
/// (`Truncated`). On streams with a read timeout, an expiry before the
/// frame's first byte reads as `Idle` (retryable); one mid-frame keeps
/// waiting, since aborting there would desynchronise the stream.
fn read_exact_or<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    at_boundary: bool,
) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_boundary && filled == 0 {
                    WireError::Eof
                } else {
                    WireError::Truncated
                })
            }
            Ok(read) => filled += read,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if at_boundary && filled == 0 {
                    return Err(WireError::Idle);
                }
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Serializes a message and writes it as one frame.
pub fn write_message<W: Write, T: serde::Serialize>(
    writer: &mut W,
    message: &T,
) -> Result<(), WireError> {
    write_frame(writer, serde::json::to_string(message).as_bytes())
}

/// Reads one frame and deserializes the message it carries.
pub fn read_message<R: Read, T>(reader: &mut R, max_bytes: usize) -> Result<T, WireError>
where
    T: for<'de> serde::Deserialize<'de>,
{
    let payload = read_frame(reader, max_bytes)?;
    let text = std::str::from_utf8(&payload)
        .map_err(|_| WireError::Codec(serde::Error::custom("payload is not UTF-8")))?;
    serde::json::from_str(text).map_err(WireError::Codec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap(), b"");
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME_BYTES),
            Err(WireError::Eof)
        ));
    }

    #[test]
    fn a_frame_is_one_write() {
        /// Records the size of every `write` call.
        struct Writes(Vec<usize>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut writes = Writes(Vec::new());
        write_frame(&mut writes, b"hello").unwrap();
        assert_eq!(writes.0, vec![MAGIC.len() + 4 + 5]);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"x").unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut Cursor::new(bytes), MAX_FRAME_BYTES),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn oversized_declarations_are_rejected_before_allocation() {
        let mut bytes = Vec::from(MAGIC);
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(bytes), MAX_FRAME_BYTES),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn truncation_inside_header_or_payload_is_distinguished_from_eof() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"hello").unwrap();
        for cut in 1..bytes.len() {
            let result = read_frame(&mut Cursor::new(&bytes[..cut]), MAX_FRAME_BYTES);
            assert!(matches!(result, Err(WireError::Truncated)), "cut at {cut}");
        }
    }

    #[test]
    fn messages_round_trip() {
        let mut buf = Vec::new();
        write_message(&mut buf, &vec![1u64, 2, 3]).unwrap();
        let decoded: Vec<u64> = read_message(&mut Cursor::new(buf), MAX_FRAME_BYTES).unwrap();
        assert_eq!(decoded, vec![1, 2, 3]);
    }

    #[test]
    fn garbage_payload_is_a_codec_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"\xff\xfenot json").unwrap();
        let result: Result<Vec<u64>, _> = read_message(&mut Cursor::new(buf), MAX_FRAME_BYTES);
        assert!(matches!(result, Err(WireError::Codec(_))));
    }
}
