//! Composable value generators with greedy shrinking.
//!
//! A [`Gen`] produces random values from an [`Rng`] and, on failure,
//! proposes *smaller* candidate values via [`Gen::shrink`]. Shrinking is
//! best-effort and type-directed: integers move toward the lower bound,
//! floats toward zero, sequences get shorter, characters move toward the
//! first character of their alphabet. Combinators built with [`Gen::map`]
//! do not shrink (the mapping is not invertible).

use mb_common::Rng;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// A generator of random test inputs.
pub trait Gen {
    /// The generated value type.
    type Value: Clone + Debug;

    /// Produce one value from the generator.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Propose strictly "smaller" candidate values, most aggressive
    /// first. Every candidate must itself be a value the generator
    /// could have produced. The default proposes nothing.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Transform generated values with `f`. The result does not shrink.
    fn map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: Clone + Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// See [`Gen::map`].
#[derive(Clone)]
pub struct Map<G, F> {
    inner: G,
    f: F,
}

impl<G, U, F> Gen for Map<G, F>
where
    G: Gen,
    U: Clone + Debug,
    F: Fn(G::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut Rng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A sequence-length specification with inclusive bounds.
///
/// Converts from `a..b` (exclusive high, proptest-style), `a..=b`, and
/// a bare `usize` (exact length).
#[derive(Clone, Copy, Debug)]
pub struct Len {
    lo: usize,
    hi: usize,
}

impl Len {
    fn pick(&self, rng: &mut Rng) -> usize {
        self.lo + rng.below(self.hi - self.lo + 1)
    }
}

impl From<Range<usize>> for Len {
    fn from(r: Range<usize>) -> Self {
        assert!(r.end > r.start, "empty length range {r:?}");
        Len { lo: r.start, hi: r.end - 1 }
    }
}

impl From<RangeInclusive<usize>> for Len {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.end() >= r.start(), "empty length range {r:?}");
        Len { lo: *r.start(), hi: *r.end() }
    }
}

impl From<usize> for Len {
    fn from(n: usize) -> Self {
        Len { lo: n, hi: n }
    }
}

macro_rules! int_gen {
    ($fn_name:ident, $ty_name:ident, $t:ty) => {
        /// Uniform integers in `[range.start, range.end)`, shrinking
        /// toward the lower bound.
        pub fn $fn_name(range: Range<$t>) -> $ty_name {
            assert!(range.end > range.start, "empty range {range:?}");
            $ty_name { lo: range.start, hi: range.end - 1 }
        }

        #[doc = concat!("See [`", stringify!($fn_name), "`].")]
        #[derive(Clone, Copy, Debug)]
        pub struct $ty_name {
            lo: $t,
            hi: $t,
        }

        impl Gen for $ty_name {
            type Value = $t;

            fn generate(&self, rng: &mut Rng) -> $t {
                let span = (self.hi - self.lo) as u64;
                assert!(span < u64::MAX, "range too wide; use u64_any");
                self.lo + rng.below((span + 1) as usize) as $t
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let v = *value;
                let mut out = Vec::new();
                if v == self.lo {
                    return out;
                }
                out.push(self.lo);
                let mid = self.lo + (v - self.lo) / 2;
                if mid != self.lo && mid != v {
                    out.push(mid);
                }
                if v - 1 != self.lo && v - 1 != mid {
                    out.push(v - 1);
                }
                out
            }
        }
    };
}

int_gen!(u32_in, U32In, u32);
int_gen!(u64_in, U64In, u64);
int_gen!(usize_in, UsizeIn, usize);

/// Uniform over the whole `u64` range, shrinking toward zero.
pub fn u64_any() -> AnyU64 {
    AnyU64
}

/// See [`u64_any`].
#[derive(Clone, Copy, Debug)]
pub struct AnyU64;

impl Gen for AnyU64 {
    type Value = u64;

    fn generate(&self, rng: &mut Rng) -> u64 {
        rng.next_u64()
    }

    fn shrink(&self, value: &u64) -> Vec<u64> {
        let v = *value;
        let mut out = Vec::new();
        if v == 0 {
            return out;
        }
        out.push(0);
        if v >> 1 != 0 {
            out.push(v >> 1);
        }
        if v - 1 != 0 && v - 1 != v >> 1 {
            out.push(v - 1);
        }
        out
    }
}

/// Uniform floats in `[range.start, range.end)`, shrinking toward zero
/// (if in range), the lower bound, and rounder values.
pub fn f64_in(range: Range<f64>) -> F64In {
    assert!(range.end > range.start, "empty range {range:?}");
    assert!(range.start.is_finite() && range.end.is_finite());
    F64In { lo: range.start, hi: range.end }
}

/// See [`f64_in`].
#[derive(Clone, Copy, Debug)]
pub struct F64In {
    lo: f64,
    hi: f64,
}

impl Gen for F64In {
    type Value = f64;

    fn generate(&self, rng: &mut Rng) -> f64 {
        rng.range_f64(self.lo, self.hi)
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        let v = *value;
        let in_range = |x: f64| (self.lo..self.hi).contains(&x) && x != v;
        let mut out = Vec::new();
        for cand in [0.0, self.lo, v / 2.0, v.trunc()] {
            if in_range(cand) && !out.contains(&cand) {
                out.push(cand);
            }
        }
        out
    }
}

/// Normal (wide-exponent) floats of either sign, or exactly zero —
/// the serialisation round-trip workhorse. Shrinks toward zero.
pub fn f64_normal_or_zero() -> F64NormalOrZero {
    F64NormalOrZero
}

/// See [`f64_normal_or_zero`].
#[derive(Clone, Copy, Debug)]
pub struct F64NormalOrZero;

impl Gen for F64NormalOrZero {
    type Value = f64;

    fn generate(&self, rng: &mut Rng) -> f64 {
        if rng.below(8) == 0 {
            return 0.0;
        }
        let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
        let exponent = rng.range_f64(-300.0, 300.0);
        let mantissa = rng.range_f64(1.0, 10.0);
        let v = sign * mantissa * 10f64.powf(exponent);
        if v.is_normal() {
            v
        } else {
            sign * mantissa
        }
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        let v = *value;
        let mut out = Vec::new();
        if v == 0.0 {
            return out;
        }
        out.push(0.0);
        for cand in [v / 2.0, v.trunc()] {
            if cand.is_normal() && cand != v && !out.contains(&cand) {
                out.push(cand);
            }
        }
        out
    }
}

/// Uniform characters in the inclusive code-point range `[lo, hi]`
/// (surrogates skipped), shrinking toward `lo`.
pub fn char_in(lo: char, hi: char) -> CharIn {
    assert!(lo <= hi);
    CharIn { lo: lo as u32, hi: hi as u32 }
}

/// Lowercase ASCII letters.
pub(crate) fn lowercase_char() -> CharIn {
    char_in('a', 'z')
}

/// See [`char_in`].
#[derive(Clone, Copy, Debug)]
pub struct CharIn {
    lo: u32,
    hi: u32,
}

impl Gen for CharIn {
    type Value = char;

    fn generate(&self, rng: &mut Rng) -> char {
        loop {
            let code = self.lo + rng.below((self.hi - self.lo + 1) as usize) as u32;
            if let Some(c) = char::from_u32(code) {
                return c;
            }
        }
    }

    fn shrink(&self, value: &char) -> Vec<char> {
        let v = *value as u32;
        let mut out = Vec::new();
        for cand in [self.lo, self.lo + (v.saturating_sub(self.lo)) / 2] {
            if cand != v {
                if let Some(c) = char::from_u32(cand) {
                    if !out.contains(&c) {
                        out.push(c);
                    }
                }
            }
        }
        out
    }
}

/// Arbitrary Unicode scalar values, weighted so that ASCII dominates
/// but multi-byte, combining, and astral-plane characters (the classic
/// tokenizer breakers) still appear. Shrinks toward `'a'`.
pub(crate) fn any_char() -> AnyChar {
    AnyChar
}

/// See `any_char`.
#[derive(Clone, Copy, Debug)]
pub struct AnyChar;

impl Gen for AnyChar {
    type Value = char;

    fn generate(&self, rng: &mut Rng) -> char {
        let (lo, hi) = match rng.below(16) {
            0..=7 => (0x20, 0x7E),      // printable ASCII
            8 | 9 => (0x00, 0x1F),      // controls (tab, newline, ...)
            10 | 11 => (0x80, 0x24F),   // Latin supplements / accents
            12 | 13 => (0x250, 0xD7FF), // general BMP
            _ => (0x1_0000, 0x2_FFFF),  // astral plane (math symbols, emoji)
        };
        loop {
            let code = lo + rng.below((hi - lo + 1) as usize) as u32;
            if let Some(c) = char::from_u32(code) {
                return c;
            }
        }
    }

    fn shrink(&self, value: &char) -> Vec<char> {
        let v = *value;
        let mut out = Vec::new();
        for cand in ['a', ' '] {
            if cand != v {
                out.push(cand);
            }
        }
        if (v as u32) > 0x7F {
            out.push('?');
        }
        out
    }
}

/// A character drawn uniformly from an explicit alphabet, shrinking
/// toward the alphabet's first character.
pub(crate) fn charset_char(alphabet: &str) -> CharsetChar {
    let chars: Vec<char> = alphabet.chars().collect();
    assert!(!chars.is_empty(), "empty alphabet");
    CharsetChar { chars }
}

/// See `charset_char`.
#[derive(Clone, Debug)]
pub struct CharsetChar {
    chars: Vec<char>,
}

impl Gen for CharsetChar {
    type Value = char;

    fn generate(&self, rng: &mut Rng) -> char {
        self.chars[rng.below(self.chars.len())]
    }

    fn shrink(&self, value: &char) -> Vec<char> {
        if *value != self.chars[0] {
            vec![self.chars[0]]
        } else {
            Vec::new()
        }
    }
}

/// A string of characters from `chars` with length in `len`.
pub(crate) fn string_of<C>(chars: C, len: impl Into<Len>) -> StringGen<C>
where
    C: Gen<Value = char>,
{
    StringGen { chars, len: len.into() }
}

/// `[a-z]{len}` — the lowercase word generator.
pub fn lowercase_string(len: impl Into<Len>) -> StringGen<CharIn> {
    string_of(lowercase_char(), len)
}

/// `.{len}` — arbitrary Unicode strings (see `any_char`).
pub fn any_string(len: impl Into<Len>) -> StringGen<AnyChar> {
    string_of(any_char(), len)
}

/// A string over an explicit alphabet (see `charset_char`).
pub fn charset_string(alphabet: &str, len: impl Into<Len>) -> StringGen<CharsetChar> {
    string_of(charset_char(alphabet), len)
}

/// See `string_of`.
#[derive(Clone, Debug)]
pub struct StringGen<C> {
    chars: C,
    len: Len,
}

impl<C> Gen for StringGen<C>
where
    C: Gen<Value = char>,
{
    type Value = String;

    fn generate(&self, rng: &mut Rng) -> String {
        let n = self.len.pick(rng);
        (0..n).map(|_| self.chars.generate(rng)).collect()
    }

    fn shrink(&self, value: &String) -> Vec<String> {
        let items: Vec<char> = value.chars().collect();
        shrink_seq(&items, self.len.lo, |c| self.chars.shrink(c))
            .into_iter()
            .map(|cs| cs.into_iter().collect())
            .collect()
    }
}

/// A vector of values from `item` with length in `len`.
pub fn vec_of<G: Gen>(item: G, len: impl Into<Len>) -> VecGen<G> {
    VecGen { item, len: len.into() }
}

/// See [`vec_of`].
#[derive(Clone, Debug)]
pub struct VecGen<G> {
    item: G,
    len: Len,
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut Rng) -> Vec<G::Value> {
        let n = self.len.pick(rng);
        (0..n).map(|_| self.item.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        shrink_seq(value, self.len.lo, |v| self.item.shrink(v))
    }
}

/// Shared sequence shrinker: aggressive truncations first, then
/// single-element removals, then element-wise shrinks.
fn shrink_seq<T: Clone>(
    items: &[T],
    min_len: usize,
    shrink_item: impl Fn(&T) -> Vec<T>,
) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    let n = items.len();
    if n > min_len {
        out.push(items[..min_len].to_vec());
        let half = min_len + (n - min_len) / 2;
        if half != min_len && half != n {
            out.push(items[..half].to_vec());
        }
        for i in 0..n {
            let mut v = items.to_vec();
            v.remove(i);
            out.push(v);
        }
    }
    for (i, item) in items.iter().enumerate() {
        for cand in shrink_item(item) {
            let mut v = items.to_vec();
            v[i] = cand;
            out.push(v);
        }
    }
    out
}

macro_rules! tuple_gen {
    ($( $G:ident : $idx:tt ),+) => {
        impl<$($G: Gen),+> Gen for ($($G,)+) {
            type Value = ($($G::Value,)+);

            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ( $( self.$idx.generate(rng), )+ )
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut c = value.clone();
                        c.$idx = cand;
                        out.push(c);
                    }
                )+
                out
            }
        }
    };
}

tuple_gen!(A:0);
tuple_gen!(A:0, B:1);
tuple_gen!(A:0, B:1, C:2);
tuple_gen!(A:0, B:1, C:2, D:3);
tuple_gen!(A:0, B:1, C:2, D:3, E:4);
tuple_gen!(A:0, B:1, C:2, D:3, E:4, F:5);
