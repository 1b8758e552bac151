//! Onion-layer cryptography for the substrate.
//!
//! FlashFlow's security argument needs three things from the crypto layer
//! (§4.1, §5): (1) a per-circuit key exchange so the measurer and target
//! share keys, (2) per-hop stream encryption whose *cost* the target must
//! pay on every measurement cell (this is what makes the measurement
//! demonstrate forwarding capacity), and (3) cell contents that a relay
//! cannot predict without doing that work, so random spot-checks catch
//! forged echoes.
//!
//! We implement a keyed xorshift-family stream cipher and a
//! Diffie–Hellman-style handshake over the multiplicative group modulo the
//! Mersenne prime 2⁶¹−1. **This is NOT cryptographically secure** — the
//! sanctioned offline dependency set has no cipher crate, and the
//! reproduction needs structural properties (commutativity, determinism,
//! unpredictability-without-key *within the simulation*) rather than
//! real-world confidentiality. DESIGN.md §1 records this substitution.

/// The Mersenne prime 2^61 - 1: modulus of the handshake group.
const DH_MODULUS: u64 = (1 << 61) - 1;
/// Generator of a large subgroup mod [`DH_MODULUS`].
const DH_GENERATOR: u64 = 7;

fn mulmod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

fn powmod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc: u64 = 1;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod(acc, base, m);
        }
        base = mulmod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// A party's secret handshake exponent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecretKey(u64);

/// A party's public handshake value `g^secret mod p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey(u64);

/// The symmetric key two parties derive from the handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SharedKey(u64);

impl SecretKey {
    /// Derives a secret key from raw entropy.
    pub fn from_entropy(entropy: u64) -> Self {
        // Keep the exponent in [2, p-2].
        SecretKey(2 + entropy % (DH_MODULUS - 3))
    }

    /// This secret's public value.
    pub fn public(self) -> PublicKey {
        PublicKey(powmod(DH_GENERATOR, self.0, DH_MODULUS))
    }

    /// Completes the handshake against a peer's public value.
    pub fn shared_with(self, peer: PublicKey) -> SharedKey {
        SharedKey(powmod(peer.0, self.0, DH_MODULUS))
    }
}

impl SharedKey {
    /// Builds a shared key directly from raw material (e.g. for tests or
    /// pre-shared measurement keys).
    pub fn from_raw(raw: u64) -> Self {
        SharedKey(raw)
    }

    /// Raw key material.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A deterministic keystream generator (xoshiro256** keyed by the shared
/// key and a direction nonce) applied as an XOR stream cipher.
#[derive(Debug, Clone)]
struct StreamCipher {
    s: [u64; 4],
    buffer: u64,
    buffered: usize,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl StreamCipher {
    /// Creates a cipher keyed by `key` with a direction/instance `nonce`.
    /// Encryption and decryption are the same operation; the two endpoints
    /// must construct ciphers with identical parameters and apply them to
    /// the same byte positions in order.
    pub fn new(key: SharedKey, nonce: u64) -> Self {
        let mut sm = key.0 ^ nonce.rotate_left(32) ^ 0x5851_F42D_4C95_7F2D;
        StreamCipher {
            s: [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)],
            buffer: 0,
            buffered: 0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    fn next_byte(&mut self) -> u8 {
        if self.buffered == 0 {
            self.buffer = self.next_u64();
            self.buffered = 8;
        }
        let b = (self.buffer & 0xFF) as u8;
        self.buffer >>= 8;
        self.buffered -= 1;
        b
    }

    /// XORs the keystream into `buf` in place (encrypt == decrypt).
    pub fn apply(&mut self, buf: &mut [u8]) {
        for b in buf {
            *b ^= self.next_byte();
        }
    }
}

/// The onion encryption state for one circuit as held by the client:
/// one keyed cipher pair (forward/backward) per hop.
#[derive(Debug)]
pub struct OnionCrypto {
    forward: Vec<StreamCipher>,
    backward: Vec<StreamCipher>,
}

/// Nonce tag for the forward (client → exit) direction.
const NONCE_FORWARD: u64 = 0xF0F0_0001;
/// Nonce tag for the backward (exit → client) direction.
const NONCE_BACKWARD: u64 = 0x0B0B_0002;

impl OnionCrypto {
    /// Builds the client-side layered state from the per-hop shared keys,
    /// ordered guard first.
    pub fn new(hop_keys: &[SharedKey]) -> Self {
        OnionCrypto {
            forward: hop_keys.iter().map(|k| StreamCipher::new(*k, NONCE_FORWARD)).collect(),
            backward: hop_keys.iter().map(|k| StreamCipher::new(*k, NONCE_BACKWARD)).collect(),
        }
    }

    /// Client-side encryption for an outbound payload: applies each hop's
    /// forward cipher from the last hop inward, so that each relay peels
    /// exactly one layer.
    pub fn encrypt_outbound(&mut self, payload: &mut [u8]) {
        for cipher in self.forward.iter_mut().rev() {
            cipher.apply(payload);
        }
    }

    /// Client-side decryption for an inbound payload: peels each hop's
    /// backward layer guard-first (the reverse of what relays applied).
    pub fn decrypt_inbound(&mut self, payload: &mut [u8]) {
        for cipher in self.backward.iter_mut() {
            cipher.apply(payload);
        }
    }
}

/// One relay's view of a circuit's crypto: it peels a single forward layer
/// and adds a single backward layer.
#[derive(Debug)]
pub struct RelayLayer {
    forward: StreamCipher,
    backward: StreamCipher,
}

impl RelayLayer {
    /// Builds the relay-side state from the hop's shared key.
    pub fn new(key: SharedKey) -> Self {
        RelayLayer {
            forward: StreamCipher::new(key, NONCE_FORWARD),
            backward: StreamCipher::new(key, NONCE_BACKWARD),
        }
    }

    /// Peels this relay's layer from an outbound payload.
    pub fn peel_outbound(&mut self, payload: &mut [u8]) {
        self.forward.apply(payload);
    }

    /// Adds this relay's layer to an inbound payload.
    pub fn add_inbound(&mut self, payload: &mut [u8]) {
        self.backward.apply(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_is_commutative() {
        let a = SecretKey::from_entropy(123456789);
        let b = SecretKey::from_entropy(987654321);
        assert_eq!(a.shared_with(b.public()), b.shared_with(a.public()));
    }

    #[test]
    fn different_peers_different_keys() {
        let a = SecretKey::from_entropy(1);
        let b = SecretKey::from_entropy(2);
        let c = SecretKey::from_entropy(3);
        assert_ne!(a.shared_with(b.public()), a.shared_with(c.public()));
    }

    #[test]
    fn stream_cipher_round_trips() {
        let key = SharedKey::from_raw(42);
        let mut enc = StreamCipher::new(key, 7);
        let mut dec = StreamCipher::new(key, 7);
        let mut data = *b"attack at dawn, bring cells";
        let orig = data;
        enc.apply(&mut data);
        assert_ne!(data, orig);
        dec.apply(&mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn cipher_differs_by_nonce() {
        let key = SharedKey::from_raw(42);
        let mut a = StreamCipher::new(key, 1);
        let mut b = StreamCipher::new(key, 2);
        let mut da = [0u8; 16];
        let mut db = [0u8; 16];
        a.apply(&mut da);
        b.apply(&mut db);
        assert_ne!(da, db);
    }

    #[test]
    fn onion_layers_peel_in_order() {
        // Client encrypts for 3 hops; each relay peels one layer; the exit
        // sees plaintext.
        let keys: Vec<SharedKey> = (1..=3).map(SharedKey::from_raw).collect();
        let mut client = OnionCrypto::new(&keys);
        let mut relays: Vec<RelayLayer> = keys.iter().map(|k| RelayLayer::new(*k)).collect();

        let mut payload = *b"forward secret payload";
        let plain = payload;
        client.encrypt_outbound(&mut payload);
        for (i, relay) in relays.iter_mut().enumerate() {
            assert_ne!(payload, plain, "hop {i} saw plaintext early");
            relay.peel_outbound(&mut payload);
        }
        assert_eq!(payload, plain);
    }

    #[test]
    fn onion_inbound_round_trips() {
        let keys: Vec<SharedKey> = (10..13).map(SharedKey::from_raw).collect();
        let mut client = OnionCrypto::new(&keys);
        let mut relays: Vec<RelayLayer> = keys.iter().map(|k| RelayLayer::new(*k)).collect();

        let mut payload = *b"reply travelling back";
        let plain = payload;
        // The exit adds its layer first, then middle, then guard.
        for relay in relays.iter_mut().rev() {
            relay.add_inbound(&mut payload);
        }
        client.decrypt_inbound(&mut payload);
        assert_eq!(payload, plain);
    }

    #[test]
    fn single_hop_measurement_echo_round_trip() {
        // FlashFlow's measurement circuit has exactly one hop: the target.
        let key = SharedKey::from_raw(0xFEED);
        let mut measurer = OnionCrypto::new(&[key]);
        let mut target = RelayLayer::new(key);

        let mut cells: Vec<[u8; 32]> = Vec::new();
        for i in 0..50u8 {
            let mut cell = [i; 32];
            let orig = cell;
            measurer.encrypt_outbound(&mut cell);
            target.peel_outbound(&mut cell); // target decrypts
            assert_eq!(cell, orig, "target must recover the random bytes");
            cells.push(cell);
        }
        assert_eq!(cells.len(), 50);
    }

    #[test]
    fn powmod_small_cases() {
        assert_eq!(powmod(2, 10, 1_000_003), 1024);
        assert_eq!(powmod(7, 0, 11), 1);
        assert_eq!(powmod(5, 3, 13), 125 % 13);
    }
}
