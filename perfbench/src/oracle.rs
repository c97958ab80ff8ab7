//! The response oracle: a plain sequential map every response is
//! replayed against.

use std::collections::HashMap;
use warpdrive::{Op, Response};

/// Sequential reference semantics of the front-door op alphabet, keyed
/// by a namespace (the serve tenant; 0 elsewhere) and the key.
#[derive(Default)]
pub struct Oracle {
    map: HashMap<(u8, u32), u32>,
    checked: u64,
    mismatches: u64,
    first: Option<String>,
}

impl Oracle {
    /// Applies `op` in namespace `ns` and returns the sequential response.
    pub fn apply(&mut self, ns: u8, op: Op) -> Response {
        match op {
            Op::Put { key, value } => {
                self.map.insert((ns, key), value);
                Response::Put
            }
            Op::Get { key } => Response::Get {
                value: self.map.get(&(ns, key)).copied(),
            },
            Op::Delete { key } => Response::Delete {
                hit: self.map.remove(&(ns, key)).is_some(),
            },
        }
    }

    /// Applies `op` and compares the program's response with the
    /// sequential one.
    pub fn check(&mut self, ns: u8, op: Op, got: Response) {
        let want = self.apply(ns, op);
        self.checked += 1;
        if want != got {
            self.mismatches += 1;
            if self.first.is_none() {
                self.first = Some(format!(
                    "namespace {ns}: {op:?} answered {got:?}, sequential map says {want:?}"
                ));
            }
        }
    }

    /// Records a mismatch found outside a per-op replay (e.g. a count).
    pub fn fail(&mut self, what: String) {
        self.mismatches += 1;
        if self.first.is_none() {
            self.first = Some(what);
        }
    }

    /// Adds another oracle's tallies (a separate replay checked against
    /// its own sequential map).
    pub fn absorb(&mut self, o: &Oracle) {
        self.checked += o.checked;
        self.mismatches += o.mismatches;
        if self.first.is_none() {
            self.first.clone_from(&o.first);
        }
    }

    /// Drops the sequential map, keeping the tallies.
    pub fn release(&mut self) {
        self.map = HashMap::new();
    }

    /// Live keys in the model.
    pub fn len(&self) -> u64 {
        self.map.len() as u64
    }

    /// Responses compared so far.
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// Mismatches found so far.
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }

    /// The first mismatch, described.
    pub fn first_mismatch(&self) -> Option<&str> {
        self.first.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catches_a_wrong_answer() {
        let mut o = Oracle::default();
        o.check(0, Op::Put { key: 1, value: 5 }, Response::Put);
        o.check(0, Op::Get { key: 1 }, Response::Get { value: Some(5) });
        o.check(1, Op::Get { key: 1 }, Response::Get { value: None });
        assert_eq!(o.mismatches(), 0);
        o.check(0, Op::Delete { key: 1 }, Response::Delete { hit: false });
        assert_eq!(o.mismatches(), 1);
        assert!(o.first_mismatch().is_some());
    }
}
