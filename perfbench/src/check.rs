//! Value encoding and reply validation.
//!
//! Every value the benchmark writes is `key << 32 | tag`: the key it
//! was written under and a tag naming the write. Prefill writes tag 0;
//! both keys of one `multi_put`/`multi_cas` carry the same tag, so a
//! consistent snapshot holds one tag per pair.

use std::collections::BTreeMap;

pub fn value(key: u64, tag: u32) -> u64 {
    key << 32 | u64::from(tag)
}

pub fn tag_of(v: u64) -> u32 {
    v as u32
}

/// A reply that cannot be right.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    Missing {
        key: u64,
    },
    WrongKey {
        key: u64,
        got: u64,
    },
    CasMismatch {
        key: u64,
        ok: bool,
        expect: u64,
        prev: u64,
    },
    SnapshotSize {
        want: usize,
        got: usize,
    },
    TornPair {
        a: u64,
        b: u64,
        tag_a: u32,
        tag_b: u32,
    },
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Missing { key } => write!(f, "key {key} missing"),
            Fault::WrongKey { key, got } => write!(f, "key {key} answered {got:#x}"),
            Fault::CasMismatch {
                key,
                ok,
                expect,
                prev,
            } => {
                write!(f, "cas on {key}: ok={ok} expect={expect:#x} prev={prev:#x}")
            }
            Fault::SnapshotSize { want, got } => write!(f, "snapshot has {got} keys, want {want}"),
            Fault::TornPair { a, b, tag_a, tag_b } => {
                write!(f, "torn pair ({a}, {b}): tags {tag_a} and {tag_b}")
            }
        }
    }
}

/// Every key is prefilled and never removed, so every read and every
/// write's previous value is present and encodes its own key.
pub fn reply(key: u64, got: Option<u64>) -> Result<u64, Fault> {
    match got {
        None => Err(Fault::Missing { key }),
        Some(v) if v >> 32 != key => Err(Fault::WrongKey { key, got: v }),
        Some(v) => Ok(v),
    }
}

/// A `cas(key, Some(expect), _)` reply: the previous value is the
/// key's, and the CAS succeeded exactly when it equals `expect`.
pub fn cas(key: u64, expect: u64, ok: bool, prev: Option<u64>) -> Result<(), Fault> {
    let prev = reply(key, prev)?;
    if ok != (prev == expect) {
        return Err(Fault::CasMismatch {
            key,
            ok,
            expect,
            prev,
        });
    }
    Ok(())
}

/// A `multi_cas` on pair `(a, b)` that expected `(va, vb)`. A pair is
/// only ever written whole, so expectations with different tags (a
/// torn `multi_get`) can never all hold, and such a CAS must not commit.
pub fn multi_cas(a: u64, b: u64, va: u64, vb: u64, ok: bool) -> Result<(), Fault> {
    if ok && tag_of(va) != tag_of(vb) {
        return Err(Fault::TornPair {
            a,
            b,
            tag_a: tag_of(va),
            tag_b: tag_of(vb),
        });
    }
    Ok(())
}

/// A snapshot of `keys` keys whose lower `pairs_below` keys form
/// multi-op pairs `(2p, 2p + 1)`.
pub fn snapshot(map: &BTreeMap<u64, u64>, keys: u64, pairs_below: u64) -> Result<(), Fault> {
    if map.len() as u64 != keys {
        return Err(Fault::SnapshotSize {
            want: keys as usize,
            got: map.len(),
        });
    }
    let mut pair_tag = 0;
    for (i, (&k, &v)) in map.iter().enumerate() {
        if k != i as u64 {
            return Err(Fault::Missing { key: i as u64 });
        }
        reply(k, Some(v))?;
        if k < pairs_below {
            if k % 2 == 0 {
                pair_tag = tag_of(v);
            } else if tag_of(v) != pair_tag {
                return Err(Fault::TornPair {
                    a: k - 1,
                    b: k,
                    tag_a: pair_tag,
                    tag_b: tag_of(v),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(keys: u64) -> BTreeMap<u64, u64> {
        (0..keys).map(|k| (k, value(k, 0))).collect()
    }

    #[test]
    fn good_replies_pass() {
        assert_eq!(reply(5, Some(value(5, 9))), Ok(value(5, 9)));
        assert!(cas(5, value(5, 1), true, Some(value(5, 1))).is_ok());
        assert!(cas(5, value(5, 1), false, Some(value(5, 2))).is_ok());
        let mut m = full(8);
        m.insert(0, value(0, 7));
        m.insert(1, value(1, 7));
        assert!(snapshot(&m, 8, 4).is_ok());
    }

    #[test]
    fn wrong_key_reply_is_flagged() {
        assert_eq!(
            reply(5, Some(value(6, 1))),
            Err(Fault::WrongKey {
                key: 5,
                got: value(6, 1)
            })
        );
        assert_eq!(reply(5, None), Err(Fault::Missing { key: 5 }));
        assert!(cas(5, value(5, 1), true, Some(value(5, 2))).is_err());
        assert!(cas(5, value(5, 1), false, Some(value(5, 1))).is_err());
        let mut m = full(8);
        m.insert(6, value(7, 0));
        assert!(matches!(
            snapshot(&m, 8, 4),
            Err(Fault::WrongKey { key: 6, .. })
        ));
    }

    #[test]
    fn torn_pair_is_flagged() {
        let mut m = full(8);
        m.insert(2, value(2, 3));
        assert_eq!(
            snapshot(&m, 8, 4),
            Err(Fault::TornPair {
                a: 2,
                b: 3,
                tag_a: 3,
                tag_b: 0
            })
        );
        // Keys above the pair region are single-key writes: any tags.
        let mut m = full(8);
        m.insert(4, value(4, 3));
        assert!(snapshot(&m, 8, 4).is_ok());
    }

    #[test]
    fn commit_on_torn_expectations_is_flagged() {
        assert!(multi_cas(0, 1, value(0, 4), value(1, 4), true).is_ok());
        assert!(multi_cas(0, 1, value(0, 4), value(1, 2), false).is_ok());
        assert!(multi_cas(0, 1, value(0, 4), value(1, 2), true).is_err());
    }

    #[test]
    fn short_snapshot_is_flagged() {
        let mut m = full(8);
        m.remove(&3);
        assert!(snapshot(&m, 8, 4).is_err());
    }
}
