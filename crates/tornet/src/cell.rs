//! Tor cells: the fixed 514-byte protocol unit.
//!
//! Communication in Tor happens in fixed-length cells (§2 of the paper:
//! "Communication cells of a fixed 514-byte length are sent through the
//! circuit"). We implement the link-protocol-v4 framing: a 4-byte circuit
//! id, a 1-byte command, and a 509-byte payload.
//!
//! Beyond the standard commands, this reproduction adds the paper's
//! protocol extensions:
//!
//! * [`Command::SpeedTest`] — §3.4's experiment cell: echoed back to the
//!   client by a supporting relay on the same circuit.
//! * [`Command::MeasureOpen`]/[`Command::MeasureOpened`] — FlashFlow's new
//!   circuit-creation handshake for measurement circuits (§4.1: "a special
//!   measurement circuit is constructed using a new type of
//!   circuit-creation cell").
//! * [`Command::Measure`] — the measurement cell carrying random bytes,
//!   decrypted and echoed by the target.

/// Total size of a cell on the wire.
pub const CELL_LEN: usize = 514;
/// Bytes of payload in each cell.
pub const PAYLOAD_LEN: usize = CELL_LEN - 5;

/// Cell commands used by the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Command {
    /// Padding / keepalive.
    Padding = 0,
    /// Circuit-creation handshake request.
    Create = 1,
    /// Circuit-creation handshake response.
    Created = 2,
    /// Application data relayed along a circuit.
    Relay = 3,
    /// Circuit teardown.
    Destroy = 4,
    /// §3.4 speed-test cell: forwarded straight back to the client.
    SpeedTest = 32,
    /// FlashFlow measurement-circuit creation request.
    MeasureOpen = 33,
    /// FlashFlow measurement-circuit creation response.
    MeasureOpened = 34,
    /// FlashFlow measurement cell (random payload, echoed after decrypt).
    Measure = 35,
    /// Circuit-level flow-control credit.
    Sendme = 5,
}

impl Command {
    /// Parses a wire byte.
    pub fn from_u8(v: u8) -> Option<Command> {
        Some(match v {
            0 => Command::Padding,
            1 => Command::Create,
            2 => Command::Created,
            3 => Command::Relay,
            4 => Command::Destroy,
            5 => Command::Sendme,
            32 => Command::SpeedTest,
            33 => Command::MeasureOpen,
            34 => Command::MeasureOpened,
            35 => Command::Measure,
            _ => return None,
        })
    }
}

/// Identifies a circuit on one link. Chosen by the initiating side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CircId(pub u32);

/// A fixed-size Tor cell.
#[derive(Clone, PartialEq, Eq)]
pub struct Cell {
    /// Circuit the cell belongs to.
    pub circ_id: CircId,
    /// What the cell does.
    pub command: Command,
    /// Fixed-size payload.
    pub payload: [u8; PAYLOAD_LEN],
}

impl Cell {
    /// A cell with a zeroed payload.
    pub fn new(circ_id: CircId, command: Command) -> Self {
        Cell { circ_id, command, payload: [0u8; PAYLOAD_LEN] }
    }

    /// A cell carrying the given bytes (zero-padded).
    ///
    /// # Panics
    /// Panics if `data` exceeds [`PAYLOAD_LEN`].
    pub fn with_payload(circ_id: CircId, command: Command, data: &[u8]) -> Self {
        assert!(data.len() <= PAYLOAD_LEN, "payload too large: {}", data.len());
        let mut cell = Cell::new(circ_id, command);
        cell.payload[..data.len()].copy_from_slice(data);
        cell
    }

    /// Serialises to exactly [`CELL_LEN`] bytes.
    pub fn encode(&self) -> [u8; CELL_LEN] {
        let mut out = [0u8; CELL_LEN];
        out[..4].copy_from_slice(&self.circ_id.0.to_be_bytes());
        out[4] = self.command as u8;
        out[5..].copy_from_slice(&self.payload);
        out
    }

    /// Parses a cell from wire bytes.
    ///
    /// Returns `None` if the length or command byte is invalid.
    pub fn decode(bytes: &[u8]) -> Option<Cell> {
        if bytes.len() != CELL_LEN {
            return None;
        }
        let circ_id = CircId(u32::from_be_bytes(bytes[..4].try_into().expect("4 bytes")));
        let command = Command::from_u8(bytes[4])?;
        let mut payload = [0u8; PAYLOAD_LEN];
        payload.copy_from_slice(&bytes[5..]);
        Some(Cell { circ_id, command, payload })
    }
}

impl std::fmt::Debug for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cell")
            .field("circ_id", &self.circ_id)
            .field("command", &self.command)
            .field("payload", &format!("[{} bytes]", PAYLOAD_LEN))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_is_514_bytes() {
        let cell = Cell::new(CircId(7), Command::Relay);
        assert_eq!(cell.encode().len(), 514);
        assert_eq!(CELL_LEN, 514);
        assert_eq!(PAYLOAD_LEN, 509);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut cell = Cell::with_payload(CircId(0xDEADBEEF), Command::Measure, b"hello");
        cell.payload[508] = 0xFF;
        let decoded = Cell::decode(&cell.encode()).unwrap();
        assert_eq!(decoded, cell);
        assert_eq!(&decoded.payload[..5], b"hello");
        assert_eq!(decoded.payload[508], 0xFF);
    }

    #[test]
    fn decode_rejects_bad_length() {
        assert!(Cell::decode(&[0u8; 100]).is_none());
        assert!(Cell::decode(&[0u8; 515]).is_none());
    }

    #[test]
    fn decode_rejects_unknown_command() {
        let mut bytes = Cell::new(CircId(1), Command::Relay).encode();
        bytes[4] = 250; // invalid command byte
        assert!(Cell::decode(&bytes).is_none());
    }

    #[test]
    fn all_commands_round_trip() {
        for cmd in [
            Command::Padding,
            Command::Create,
            Command::Created,
            Command::Relay,
            Command::Destroy,
            Command::Sendme,
            Command::SpeedTest,
            Command::MeasureOpen,
            Command::MeasureOpened,
            Command::Measure,
        ] {
            assert_eq!(Command::from_u8(cmd as u8), Some(cmd));
        }
    }

    #[test]
    #[should_panic]
    fn oversized_payload_panics() {
        let _ = Cell::with_payload(CircId(1), Command::Relay, &[0u8; PAYLOAD_LEN + 1]);
    }
}
