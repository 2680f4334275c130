// Seeded suppression-hygiene violations: every comment below is wrong.
fn f() -> u32 {
    // mb-lint: allow(panic-reach)
    // mb-lint: allow(panic-reach) --
    // mb-lint: allow(no-such-rule) -- because
    // mb-lint: bogus
    1
}
