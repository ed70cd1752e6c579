//! scope: crates/core/src/fault.rs
//! Fixture: untested-pub-fn fires on concurrency-surface pub fns that no
//! #[test] references; covered fns, private fns and `main` stay clean.

pub fn orphan_resume_path(token: u64) -> bool { //~ untested-pub-fn
    token != 0
}

pub fn covered_park_path(id: u64) -> u64 {
    id.wrapping_mul(3)
}

fn private_helper() {}

pub(crate) fn crate_visible_helper() {}

/// Non-test callers, so `unreferenced-pub` stays quiet here.
fn drive() -> bool {
    orphan_resume_path(covered_park_path(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_path_is_covered() {
        assert_eq!(covered_park_path(2), 6);
        private_helper();
        crate_visible_helper();
    }
}
