//! Circuits: construction handshakes and flow-control windows.
//!
//! A Tor client builds a circuit through a sequence of relays by
//! exchanging `Create`/`Created` handshakes hop by hop, then relays data
//! in 514-byte cells subject to a circuit-level (1000-cell) packaging
//! window.
//!
//! FlashFlow adds a one-hop *measurement circuit* built with
//! `MeasureOpen`: a key exchange is performed but the circuit is never
//! extended, and measurement cells bypass the ordinary windows (the
//! separate measurement scheduler provides backpressure instead — §4.1).

use crate::cell::{Cell, CircId, Command, PAYLOAD_LEN};
use crate::crypto::{OnionCrypto, PublicKey, RelayLayer, SecretKey, SharedKey};

/// Initial circuit-level packaging window, in cells.
const CIRCUIT_WINDOW_INIT: i32 = 1000;

/// Errors from window accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowError {
    /// Tried to package a cell with an empty window.
    Exhausted,
}

impl std::fmt::Display for WindowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowError::Exhausted => write!(f, "packaging window exhausted"),
        }
    }
}

impl std::error::Error for WindowError {}

/// A circuit's packaging window: the cells it may still send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    current: i32,
}

impl Window {
    /// A circuit-level window (1000 cells).
    pub fn circuit() -> Self {
        Window { current: CIRCUIT_WINDOW_INIT }
    }

    /// Consumes one cell of window.
    ///
    /// # Errors
    /// [`WindowError::Exhausted`] if the window is empty.
    pub fn package(&mut self) -> Result<(), WindowError> {
        if self.current <= 0 {
            return Err(WindowError::Exhausted);
        }
        self.current -= 1;
        Ok(())
    }
}

/// The maximum bytes a single circuit can have in flight given its window:
/// a hard throughput cap of `window × payload / RTT` (this is why §C's
/// circuits experiment stays flat — one socket's worth of window does not
/// grow with circuit count).
pub fn circuit_window_rate_cap(rtt_secs: f64) -> f64 {
    assert!(rtt_secs > 0.0, "rtt must be positive");
    (CIRCUIT_WINDOW_INIT as f64) * (PAYLOAD_LEN as f64) / rtt_secs
}

/// Client-side state of a general-purpose circuit.
#[derive(Debug)]
pub struct ClientCircuit {
    /// Link-level circuit id toward the guard.
    pub circ_id: CircId,
    crypto: OnionCrypto,
    /// Circuit-level packaging window.
    pub window: Window,
}

impl ClientCircuit {
    /// Completes the client side of circuit construction given each hop's
    /// handshake response, deriving the layered keys.
    pub fn build(circ_id: CircId, own_secrets: &[SecretKey], hop_publics: &[PublicKey]) -> Self {
        assert_eq!(own_secrets.len(), hop_publics.len(), "one secret per hop");
        assert!(!hop_publics.is_empty(), "a circuit needs at least one hop");
        let keys: Vec<SharedKey> =
            own_secrets.iter().zip(hop_publics).map(|(s, p)| s.shared_with(*p)).collect();
        ClientCircuit { circ_id, crypto: OnionCrypto::new(&keys), window: Window::circuit() }
    }

    /// Packages application data into an onion-encrypted relay cell.
    ///
    /// # Errors
    /// Propagates window exhaustion.
    pub fn package(&mut self, data: &[u8]) -> Result<Cell, WindowError> {
        self.window.package()?;
        let mut cell = Cell::with_payload(self.circ_id, Command::Relay, data);
        self.crypto.encrypt_outbound(&mut cell.payload);
        Ok(cell)
    }

    /// Decrypts an inbound relay cell's payload in place.
    pub fn deliver(&mut self, cell: &mut Cell) {
        self.crypto.decrypt_inbound(&mut cell.payload);
    }
}

/// Relay-side state for one transited circuit.
#[derive(Debug)]
pub struct RelayCircuit {
    /// Inbound (client-side) circuit id.
    pub inbound_id: CircId,
    /// Outbound (next-hop) circuit id, if extended.
    pub outbound_id: Option<CircId>,
    layer: RelayLayer,
}

impl RelayCircuit {
    /// Completes the relay side of a handshake.
    pub fn accept(inbound_id: CircId, own_secret: SecretKey, client_public: PublicKey) -> Self {
        RelayCircuit {
            inbound_id,
            outbound_id: None,
            layer: RelayLayer::new(own_secret.shared_with(client_public)),
        }
    }

    /// Processes an outbound cell: peels this relay's onion layer.
    pub fn relay_outbound(&mut self, cell: &mut Cell) {
        self.layer.peel_outbound(&mut cell.payload);
    }
}

/// One-hop FlashFlow measurement circuit: measurer side.
///
/// Built with `MeasureOpen`; never extended. Measurement cells carry
/// random bytes, the target peels its (only) layer and echoes the
/// plaintext back (§4.1: "All cells received on the circuit by the target
/// relay will be decrypted and then returned to the measurer").
#[derive(Debug)]
pub struct MeasurementCircuit {
    /// Link-level circuit id.
    pub circ_id: CircId,
    crypto: OnionCrypto,
}

impl MeasurementCircuit {
    /// Completes the measurer side of the `MeasureOpen` handshake.
    pub fn build(circ_id: CircId, own_secret: SecretKey, target_public: PublicKey) -> Self {
        let key = own_secret.shared_with(target_public);
        MeasurementCircuit { circ_id, crypto: OnionCrypto::new(&[key]) }
    }

    /// Encrypts a measurement payload for the target.
    pub fn seal(&mut self, data: &[u8]) -> Cell {
        let mut cell = Cell::with_payload(self.circ_id, Command::Measure, data);
        self.crypto.encrypt_outbound(&mut cell.payload);
        cell
    }

    /// The target echoes plaintext, so the measurer-side check is a direct
    /// comparison; no decryption is needed on return.
    pub fn open_echo(cell: &Cell) -> &[u8] {
        &cell.payload
    }
}

/// One-hop measurement circuit: target-relay side.
#[derive(Debug)]
pub struct MeasurementTarget {
    layer: RelayLayer,
}

impl MeasurementTarget {
    /// Completes the target side of the `MeasureOpen` handshake.
    pub fn accept(own_secret: SecretKey, measurer_public: PublicKey) -> Self {
        MeasurementTarget { layer: RelayLayer::new(own_secret.shared_with(measurer_public)) }
    }

    /// Decrypts a measurement cell (the per-cell work the measurement
    /// forces the target to demonstrate) and returns the echo cell.
    pub fn process(&mut self, mut cell: Cell) -> Cell {
        self.layer.peel_outbound(&mut cell.payload);
        cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::SecretKey;

    fn handshake_pair(seed: u64) -> (SecretKey, SecretKey) {
        (SecretKey::from_entropy(seed), SecretKey::from_entropy(seed.wrapping_mul(31) + 7))
    }

    #[test]
    fn window_exhausts() {
        let mut w = Window::circuit();
        for _ in 0..CIRCUIT_WINDOW_INIT {
            w.package().unwrap();
        }
        assert_eq!(w.package(), Err(WindowError::Exhausted));
        assert_eq!(w.current, 0);
    }

    #[test]
    fn window_rate_cap_scales_with_rtt() {
        let fast = circuit_window_rate_cap(0.01);
        let slow = circuit_window_rate_cap(0.1);
        assert!((fast / slow - 10.0).abs() < 1e-9);
        // 1000 cells * 509 B / 100 ms ≈ 40.7 Mbit/s.
        assert!((slow * 8.0 / 1e6 - 40.72).abs() < 0.01);
    }

    #[test]
    fn three_hop_circuit_end_to_end() {
        // Client builds a 3-hop circuit; each relay peels one layer; the
        // plaintext emerges at the exit only.
        let hops: Vec<(SecretKey, SecretKey)> = (0..3).map(|i| handshake_pair(100 + i)).collect();
        let client_secrets: Vec<SecretKey> = hops.iter().map(|(c, _)| *c).collect();
        let relay_publics: Vec<_> = hops.iter().map(|(_, r)| r.public()).collect();
        let mut client = ClientCircuit::build(CircId(5), &client_secrets, &relay_publics);

        let mut relays: Vec<RelayCircuit> =
            hops.iter().map(|(c, r)| RelayCircuit::accept(CircId(5), *r, c.public())).collect();

        let mut cell = client.package(b"GET / HTTP/1.0").unwrap();
        for (i, relay) in relays.iter_mut().enumerate() {
            assert_ne!(&cell.payload[..14], b"GET / HTTP/1.0", "hop {i} saw plaintext");
            relay.relay_outbound(&mut cell);
        }
        assert_eq!(&cell.payload[..14], b"GET / HTTP/1.0");

        // And back: exit packages the response, client decrypts.
        let mut response = Cell::with_payload(CircId(5), Command::Relay, b"200 OK");
        for relay in relays.iter_mut().rev() {
            relay.layer.add_inbound(&mut response.payload);
        }
        client.deliver(&mut response);
        assert_eq!(&response.payload[..6], b"200 OK");
    }

    #[test]
    fn measurement_circuit_echo_verifies() {
        let (ms, rs) = handshake_pair(77);
        let mut measurer = MeasurementCircuit::build(CircId(9), ms, rs.public());
        let mut target = MeasurementTarget::accept(rs, ms.public());

        let random_bytes: Vec<u8> = (0..PAYLOAD_LEN as u32).map(|i| (i * 7 + 3) as u8).collect();
        let sealed = measurer.seal(&random_bytes);
        assert_ne!(&sealed.payload[..], &random_bytes[..], "cell must be encrypted on the wire");
        let echoed = target.process(sealed);
        assert_eq!(MeasurementCircuit::open_echo(&echoed), &random_bytes[..]);
    }

    #[test]
    fn forged_echo_detected() {
        // A relay that skips decryption returns ciphertext, which cannot
        // match the recorded random plaintext.
        let (ms, rs) = handshake_pair(78);
        let mut measurer = MeasurementCircuit::build(CircId(9), ms, rs.public());
        let random_bytes = vec![0xABu8; 64];
        let sealed = measurer.seal(&random_bytes);
        // Malicious: echo without processing.
        assert_ne!(&MeasurementCircuit::open_echo(&sealed)[..64], &random_bytes[..]);
    }

    #[test]
    fn measurement_keys_differ_per_pair() {
        let (m1, r) = handshake_pair(1);
        let (m2, _) = handshake_pair(2);
        let k1 = m1.shared_with(r.public());
        let k2 = m2.shared_with(r.public());
        assert_ne!(k1, k2);
    }
}
