//! The on-disk compiled-artifact container.
//!
//! An artifact is a single file holding everything the serving tier
//! needs to answer queries without re-running the front end: an
//! *emulator image* (the IntCode, its pre-decoded micro-op form and
//! the memory layout it was generated for) or a *fused image* (the
//! profile-guided superinstruction tier: the fused [`DecodedProgram`]
//! plus the hash of the execution profile it was fused from and the
//! fusion report). The server only executes these two; scheduled
//! VLIW code is a measurement product, rebuilt from the profile, and
//! has no artifact kind.
//!
//! ## Container layout
//!
//! All integers are little-endian, written with the same zero-dep
//! codec ([`symbol_intcode::wire`]) the payloads use:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "SYMBART\0"
//! 8       4     format version (u32) = FORMAT_VERSION
//! 12      8     source hash   (FNV-1a 64 of the Prolog source text)
//! 20      8     config hash   (FNV-1a 64 of the canonical config bytes)
//! 28      1     payload kind  (0 = emulator, 2 = fused; 1 is retired)
//! 29      8     payload length in bytes (u64)
//! 37      n     payload (length-prefixed sections, see below)
//! 37+n    8     checksum: FNV-1a 64 over bytes [0, 37+n)
//! ```
//!
//! The emulator payload is three length-prefixed sections — IntCode
//! wire bytes, decoded-program wire bytes, then the five [`Layout`]
//! sizes as `u64`s. The fused payload is one section of fused
//! decoded-program wire bytes, then the profile hash (`u64`) and the
//! serialized [`FusionReport`]. Its cache key is the source, the layout
//! and the fusion pass's salt, not the profile, so a warm start finds
//! it without profiling; the cache serves it only after checking that
//! it is a legal fusion of the base image it is attached to
//! ([`symbol_intcode::fuse::is_fusion_of`]).
//!
//! Decoding never panics: every failure mode — wrong magic, unknown
//! version, truncation, checksum mismatch, malformed payload — comes
//! back as a [`WireError`], and the cache answers all of them the same
//! way (drop the entry, recompile).

use symbol_intcode::decode::DecodedProgram;
use symbol_intcode::fuse::FusionReport;
use symbol_intcode::program::IciProgram;
use symbol_intcode::wire::{fnv1a64, Reader, WireError, Writer};
use symbol_intcode::Layout;

/// First eight bytes of every artifact file.
pub const MAGIC: [u8; 8] = *b"SYMBART\0";

/// Container format version this build reads and writes. Bump on any
/// layout change; old versions are rejected (and recompiled), never
/// migrated.
pub const FORMAT_VERSION: u32 = 1;

/// What an artifact holds, as stored in the kind byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PayloadKind {
    /// IntCode + decoded program + layout: the sequential-emulation
    /// image [`symbol_core::pipeline::Compiled::from_artifact`] accepts.
    Emulator,
    /// The profile-guided fused tier of an emulator image (the warm
    /// path of the two-tier serving loop).
    Fused,
}

impl PayloadKind {
    fn to_byte(self) -> u8 {
        match self {
            PayloadKind::Emulator => 0,
            PayloadKind::Fused => 2,
        }
    }

    /// Byte 1 was a VLIW image that nothing ever stored; it now
    /// decodes as an unknown kind, like any other byte.
    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(PayloadKind::Emulator),
            2 => Ok(PayloadKind::Fused),
            v => Err(WireError::BadTag {
                what: "payload kind",
                value: u32::from(v),
            }),
        }
    }

    /// Short name used in file names and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            PayloadKind::Emulator => "emu",
            PayloadKind::Fused => "fused",
        }
    }
}

/// The cache key of an artifact: what was compiled and under which
/// configuration. Two compilations agree on both hashes exactly when
/// the artifact of one can serve the other.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ArtifactKey {
    /// FNV-1a 64 of the Prolog source text.
    pub source_hash: u64,
    /// FNV-1a 64 of the canonical encoding of everything else that
    /// shapes the artifact (layout; plus the fusion salt for the fused
    /// tier).
    pub config_hash: u64,
}

fn layout_bytes(w: &mut Writer, layout: &Layout) {
    w.u64(layout.heap_size as u64);
    w.u64(layout.env_size as u64);
    w.u64(layout.cp_size as u64);
    w.u64(layout.trail_size as u64);
    w.u64(layout.pdl_size as u64);
}

fn layout_from(r: &mut Reader<'_>) -> Result<Layout, WireError> {
    let field = |r: &mut Reader<'_>| -> Result<usize, WireError> {
        usize::try_from(r.u64()?).map_err(|_| WireError::BadValue {
            what: "layout size",
        })
    };
    Ok(Layout {
        heap_size: field(r)?,
        env_size: field(r)?,
        cp_size: field(r)?,
        trail_size: field(r)?,
        pdl_size: field(r)?,
    })
}

impl ArtifactKey {
    /// Key of the emulator image of `source` under `layout`.
    pub fn emulator(source: &str, layout: &Layout) -> Self {
        let mut w = Writer::new();
        layout_bytes(&mut w, layout);
        ArtifactKey {
            source_hash: fnv1a64(source.as_bytes()),
            config_hash: fnv1a64(&w.into_bytes()),
        }
    }

    /// Key of the fused second-tier image of `source` under `layout`,
    /// fused under the configuration hashed as `fuse_salt`
    /// ([`symbol_intcode::FuseConfig::cache_salt`]): a retuned fusion
    /// threshold yields a new key, so a cache seeded under old
    /// thresholds is never served after the pass changes.
    ///
    /// The profile is not in the key. It is a deterministic function of
    /// the base image, which source and layout already name, and the
    /// cache checks a loaded tier against its base program instead. So
    /// `_profile_hash` is unused; it stays only because the benchmark
    /// package (`perfbench/src/serve.rs`) still passes one, until that
    /// package moves to the library's loader (ROADMAP.md, item 1).
    pub fn fused(source: &str, layout: &Layout, _profile_hash: u64, fuse_salt: u64) -> Self {
        let mut w = Writer::new();
        layout_bytes(&mut w, layout);
        w.u64(fuse_salt);
        ArtifactKey {
            source_hash: fnv1a64(source.as_bytes()),
            config_hash: fnv1a64(&w.into_bytes()),
        }
    }

    /// Canonical file name of this key's artifact of the given kind.
    pub fn file_name(&self, kind: PayloadKind) -> String {
        format!(
            "{:016x}-{:016x}-{}.art",
            self.source_hash,
            self.config_hash,
            kind.name()
        )
    }
}

/// A decoded artifact payload (owned).
#[derive(Debug)]
pub enum Payload {
    /// Emulator image.
    Emulator {
        /// Executable IntCode.
        ici: IciProgram,
        /// Its pre-decoded micro-op form.
        decoded: DecodedProgram,
        /// Memory layout the code was generated for.
        layout: Layout,
    },
    /// Fused second-tier image.
    Fused {
        /// The fused decoded program.
        fused: DecodedProgram,
        /// Hash of the execution profile the fusion consumed (a
        /// record, not part of the key).
        profile_hash: u64,
        /// What the fusion pass did (for metrics on attach).
        report: FusionReport,
    },
}

impl Payload {
    /// Which kind byte this payload serializes under.
    pub fn kind(&self) -> PayloadKind {
        match self {
            Payload::Emulator { .. } => PayloadKind::Emulator,
            Payload::Fused { .. } => PayloadKind::Fused,
        }
    }
}

/// A fully decoded artifact: its key plus the payload.
#[derive(Debug)]
pub struct Artifact {
    /// The cache key stored in the header.
    pub key: ArtifactKey,
    /// The decoded payload.
    pub payload: Payload,
}

fn put_section(w: &mut Writer, bytes: &[u8]) {
    w.u64(bytes.len() as u64);
    w.bytes(bytes);
}

fn get_section<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], WireError> {
    let len = r.u64()?;
    let len = usize::try_from(len).map_err(|_| WireError::BadValue {
        what: "section length",
    })?;
    r.take(len)
}

fn encode(key: &ArtifactKey, kind: PayloadKind, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u64(key.source_hash);
    w.u64(key.config_hash);
    w.u8(kind.to_byte());
    put_section(&mut w, payload);
    let mut bytes = w.into_bytes();
    let checksum = fnv1a64(&bytes);
    let mut w = Writer::new();
    w.u64(checksum);
    bytes.extend_from_slice(&w.into_bytes());
    bytes
}

/// Encodes an emulator image.
pub fn encode_emulator(
    key: &ArtifactKey,
    ici: &IciProgram,
    decoded: &DecodedProgram,
    layout: &Layout,
) -> Vec<u8> {
    let mut w = Writer::new();
    put_section(&mut w, &ici.to_wire_bytes());
    put_section(&mut w, &decoded.to_wire_bytes());
    layout_bytes(&mut w, layout);
    encode(key, PayloadKind::Emulator, &w.into_bytes())
}

/// Encodes a fused second-tier image.
pub fn encode_fused(
    key: &ArtifactKey,
    fused: &DecodedProgram,
    profile_hash: u64,
    report: &FusionReport,
) -> Vec<u8> {
    let mut w = Writer::new();
    put_section(&mut w, &fused.to_wire_bytes());
    w.u64(profile_hash);
    report.encode_into(&mut w);
    encode(key, PayloadKind::Fused, &w.into_bytes())
}

/// Decodes an artifact file.
///
/// # Errors
///
/// [`WireError::BadMagic`] when the file does not start with [`MAGIC`];
/// [`WireError::BadVersion`] for any other format version;
/// [`WireError::Corrupt`] when the trailing checksum does not match
/// (which also catches every short read or truncation past the
/// header); any payload decoding error otherwise. Never panics.
pub fn decode(bytes: &[u8]) -> Result<Artifact, WireError> {
    // Magic and version first, so "not an artifact at all" and "from a
    // different build" are distinguishable from bit rot.
    let mut r = Reader::new(bytes);
    let magic = r.take(MAGIC.len())?;
    if magic != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(WireError::BadVersion {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    // Integrity: the last 8 bytes checksum everything before them.
    if bytes.len() < 8 {
        return Err(WireError::Truncated {
            need: 8,
            have: bytes.len(),
        });
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut tr = Reader::new(tail);
    let stored = tr.u64()?;
    if fnv1a64(body) != stored {
        return Err(WireError::Corrupt {
            what: "artifact checksum",
        });
    }
    // Re-read the body now that it is known intact.
    let mut r = Reader::new(body);
    let _ = r.take(MAGIC.len())?;
    let _ = r.u32()?;
    let key = ArtifactKey {
        source_hash: r.u64()?,
        config_hash: r.u64()?,
    };
    let kind = PayloadKind::from_byte(r.u8()?)?;
    let payload = get_section(&mut r)?;
    r.finish()?;
    let mut pr = Reader::new(payload);
    let payload = match kind {
        PayloadKind::Emulator => {
            let ici = IciProgram::from_wire_bytes(get_section(&mut pr)?)?;
            let decoded = DecodedProgram::from_wire_bytes(get_section(&mut pr)?)?;
            let layout = layout_from(&mut pr)?;
            if decoded.len() != ici.len() {
                return Err(WireError::Corrupt {
                    what: "decoded/intcode consistency",
                });
            }
            Payload::Emulator {
                ici,
                decoded,
                layout,
            }
        }
        PayloadKind::Fused => {
            let fused = DecodedProgram::from_wire_bytes(get_section(&mut pr)?)?;
            let profile_hash = pr.u64()?;
            let report = FusionReport::decode_from(&mut pr)?;
            Payload::Fused {
                fused,
                profile_hash,
                report,
            }
        }
    };
    pr.finish()?;
    Ok(Artifact { key, payload })
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbol_core::pipeline::Compiled;

    const SRC: &str = "main :- X is 6 * 7, X = 42.";

    fn emulator_bytes() -> (ArtifactKey, Vec<u8>) {
        let c = Compiled::from_source(SRC).expect("compiles");
        let key = ArtifactKey::emulator(SRC, &c.layout);
        let bytes = encode_emulator(&key, &c.ici, &c.decoded, &c.layout);
        (key, bytes)
    }

    #[test]
    fn emulator_image_round_trips() {
        let (key, bytes) = emulator_bytes();
        let art = decode(&bytes).expect("decodes");
        assert_eq!(art.key, key);
        let Payload::Emulator {
            ici,
            decoded,
            layout,
        } = art.payload
        else {
            panic!("wrong payload kind");
        };
        // Re-encoding the decoded parts reproduces the file bit for bit.
        assert_eq!(encode_emulator(&key, &ici, &decoded, &layout), bytes);
    }

    #[test]
    fn fused_image_round_trips() {
        let src = "main :- count(20). count(0). count(N) :- N > 0, M is N - 1, count(M).";
        let mut c = Compiled::from_source(src).expect("compiles");
        c.build_fused_tier().expect("profiles and fuses");
        let tier = c.fused.as_ref().unwrap();
        let key = ArtifactKey::fused(
            src,
            &c.layout,
            tier.profile_hash,
            symbol_intcode::FuseConfig::default().cache_salt(),
        );
        let bytes = encode_fused(&key, &tier.program, tier.profile_hash, &tier.report);
        let art = decode(&bytes).expect("decodes");
        assert_eq!(art.key, key);
        let Payload::Fused {
            fused,
            profile_hash,
            report,
        } = art.payload
        else {
            panic!("wrong payload kind");
        };
        assert_eq!(profile_hash, tier.profile_hash);
        assert_eq!(report, tier.report);
        assert_eq!(encode_fused(&key, &fused, profile_hash, &report), bytes);
    }

    /// `bytes` with the kind byte (offset 28) set to `kind` and the
    /// checksum recomputed, so the kind is the only defect.
    fn with_kind(mut bytes: Vec<u8>, kind: u8) -> Vec<u8> {
        bytes[28] = kind;
        let body = bytes.len() - 8;
        let checksum = fnv1a64(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
        bytes
    }

    #[test]
    fn retired_vliw_kind_byte_is_an_unknown_kind() {
        let (_, bytes) = emulator_bytes();
        assert!(matches!(
            decode(&with_kind(bytes, 1)),
            Err(WireError::BadTag {
                what: "payload kind",
                value: 1
            })
        ));
    }

    #[test]
    fn emulator_and_fused_kind_bytes_and_version_are_unchanged() {
        let (_, emulator) = emulator_bytes();
        let mut c = Compiled::from_source(SRC).expect("compiles");
        let tier = c.build_fused_tier().expect("profiles and fuses");
        let key = ArtifactKey::fused(SRC, &Layout::default(), tier.profile_hash, 0);
        let fused = encode_fused(&key, &tier.program, tier.profile_hash, &tier.report);
        for (bytes, kind) in [(emulator, 0), (fused, 2)] {
            assert_eq!(bytes[8..12], 1u32.to_le_bytes(), "format version 1");
            assert_eq!(bytes[28], kind);
            decode(&bytes).expect("decodes");
        }
    }

    #[test]
    fn fused_key_separates_layouts_and_fuse_configs_but_not_profiles() {
        let src = "main :- 1 = 1.";
        let layout = Layout::default();
        let salt = symbol_intcode::FuseConfig::default().cache_salt();
        let a = ArtifactKey::fused(src, &layout, 1, salt);
        let b = ArtifactKey::fused(src, &layout, 2, salt);
        assert_eq!(a, b, "a warm start finds the tier without profiling");
        let emu = ArtifactKey::emulator(src, &layout);
        assert_eq!(a.source_hash, emu.source_hash);
        assert_ne!(a.config_hash, emu.config_hash);
        let small = Layout {
            heap_size: 1 << 10,
            ..layout
        };
        let c = ArtifactKey::fused(src, &small, 1, salt);
        assert_eq!(a.source_hash, c.source_hash);
        assert_ne!(a.config_hash, c.config_hash, "the layout is in the key");
        let retuned = symbol_intcode::FuseConfig {
            min_pair_permille: 500,
            ..symbol_intcode::FuseConfig::default()
        };
        let d = ArtifactKey::fused(src, &layout, 1, retuned.cache_salt());
        assert_ne!(
            a.config_hash, d.config_hash,
            "retuning the fusion pass invalidates cached fused artifacts"
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let (_, mut bytes) = emulator_bytes();
        bytes[0] ^= 0xff;
        assert!(matches!(decode(&bytes), Err(WireError::BadMagic)));
    }

    #[test]
    fn flipped_version_byte_is_rejected() {
        let (_, mut bytes) = emulator_bytes();
        bytes[8] ^= 0x01; // low byte of the u32 version field
        assert!(matches!(
            decode(&bytes),
            Err(WireError::BadVersion {
                found: _,
                expected: FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        let (_, bytes) = emulator_bytes();
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len]).is_err(), "truncated to {len} bytes");
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let (_, bytes) = emulator_bytes();
        // The checksum (or magic/version check) catches any single-bit
        // corruption anywhere in the file.
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x01;
            assert!(decode(&b).is_err(), "flip at byte {i} went unnoticed");
        }
    }

    #[test]
    fn keys_separate_source_and_config() {
        let layout = Layout::default();
        let a = ArtifactKey::emulator("main :- 1 = 1.", &layout);
        let b = ArtifactKey::emulator("main :- 2 = 2.", &layout);
        assert_ne!(a.source_hash, b.source_hash);
        assert_eq!(a.config_hash, b.config_hash);
        let small = Layout {
            heap_size: 1 << 10,
            ..layout
        };
        let c = ArtifactKey::emulator("main :- 1 = 1.", &small);
        assert_eq!(a.source_hash, c.source_hash);
        assert_ne!(a.config_hash, c.config_hash);
    }
}
