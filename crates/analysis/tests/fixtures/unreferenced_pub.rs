//! scope: crates/core/src/server.rs
//! Fixture: unreferenced-pub fires on a pub item that only its own tests, a
//! re-export or an impl header name; items a non-test caller uses, private
//! and `pub(crate)` items, and `main` stay clean.

pub use self::Orphaned as Renamed;

pub struct Config {
    pub cap: u64,
}

pub struct Builder {
    cfg: Config,
}

impl Builder {
    pub fn new() -> Self {
        Builder {
            cfg: Config { cap: 0 },
        }
    }

    /// Forwards to the config, and no caller sets it.
    pub fn bandwidth_cap(mut self, cap: u64) -> Self { //~ unreferenced-pub
        self.cfg.cap = cap;
        self
    }

    pub fn build(self) -> u64 {
        self.cfg.cap
    }
}

pub struct Orphaned; //~ unreferenced-pub

impl Orphaned {
    fn private_helper(&self) {}
}

impl Default for Orphaned {
    fn default() -> Self {
        Self
    }
}

pub fn only_tests_call_this() -> u64 { //~ unreferenced-pub
    7
}

pub(crate) fn crate_visible() -> u64 {
    Builder::new().build()
}

pub fn main() {
    let _ = crate_visible();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observes() {
        assert_eq!(only_tests_call_this(), 7);
        Orphaned.private_helper();
    }
}
