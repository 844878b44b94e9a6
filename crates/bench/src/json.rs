//! The one JSON writer every `BENCH_*.json` report goes through: objects,
//! arrays, escaped strings and fixed-precision floats, with no serde.
//!
//! Containers at the top two levels put each member on its own line;
//! deeper ones stay on one line, so a report reads one cell per line.

use std::fmt::Write as _;

/// A float written with a fixed number of decimals.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

/// A value that writes as one JSON token.
pub trait Scalar {
    /// Appends the token to `out`.
    fn write(&self, out: &mut String);
}

macro_rules! integer_scalars {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
integer_scalars!(u8, u32, u64, usize, bool);

impl Scalar for Fixed {
    /// Non-finite values have no JSON number form; they write as `null`.
    fn write(&self, out: &mut String) {
        match self.0.is_finite() {
            true => _ = write!(out, "{:.*}", self.1, self.0),
            false => out.push_str("null"),
        }
    }
}

impl Scalar for str {
    fn write(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if c < ' ' => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Scalar for String {
    fn write(&self, out: &mut String) {
        self.as_str().write(out);
    }
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write(&self, out: &mut String) {
        (**self).write(out);
    }
}

impl<T: Scalar> Scalar for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
}

/// One open container: where members go and how many precede the next.
struct Node<'a> {
    out: &'a mut String,
    depth: usize,
    members: usize,
}

impl Node<'_> {
    fn breaks(&self) -> bool {
        self.depth < 2
    }

    fn next(&mut self) {
        if self.members > 0 {
            self.out.push(',');
        }
        if self.breaks() {
            self.out.push('\n');
            self.out.push_str(&"  ".repeat(self.depth + 1));
        } else if self.members > 0 {
            self.out.push(' ');
        }
        self.members += 1;
    }
}

/// Writes one container at `depth`, its members filled by `fill`.
fn nest(out: &mut String, depth: usize, brackets: [char; 2], fill: impl FnOnce(&mut Node)) {
    out.push(brackets[0]);
    let mut node = Node {
        out,
        depth,
        members: 0,
    };
    fill(&mut node);
    if node.members > 0 && node.breaks() {
        node.out.push('\n');
        node.out.push_str(&"  ".repeat(depth));
    }
    node.out.push(brackets[1]);
}

/// An open JSON object.
pub struct Obj<'a, 'b>(&'a mut Node<'b>);

/// An open JSON array.
pub struct Arr<'a, 'b>(&'a mut Node<'b>);

impl Obj<'_, '_> {
    fn key(&mut self, key: &str) {
        self.0.next();
        key.write(self.0.out);
        self.0.out.push_str(": ");
    }

    /// Writes `key: value`.
    pub fn field(&mut self, key: &str, value: impl Scalar) -> &mut Self {
        self.key(key);
        value.write(self.0.out);
        self
    }

    /// Writes `key: {…}`, filled by `fill`.
    pub fn obj(&mut self, key: &str, fill: impl FnOnce(&mut Obj)) -> &mut Self {
        self.key(key);
        nest(self.0.out, self.0.depth + 1, ['{', '}'], |n| {
            fill(&mut Obj(n))
        });
        self
    }

    /// Writes `key: […]`, filled by `fill`.
    pub fn arr(&mut self, key: &str, fill: impl FnOnce(&mut Arr)) -> &mut Self {
        self.key(key);
        nest(self.0.out, self.0.depth + 1, ['[', ']'], |n| {
            fill(&mut Arr(n))
        });
        self
    }
}

impl Arr<'_, '_> {
    /// Appends `value`.
    pub fn item(&mut self, value: impl Scalar) -> &mut Self {
        self.0.next();
        value.write(self.0.out);
        self
    }

    /// Appends an object filled by `fill`.
    pub fn obj(&mut self, fill: impl FnOnce(&mut Obj)) -> &mut Self {
        self.0.next();
        nest(self.0.out, self.0.depth + 1, ['{', '}'], |n| {
            fill(&mut Obj(n))
        });
        self
    }

    /// Appends an array filled by `fill`.
    pub fn arr(&mut self, fill: impl FnOnce(&mut Arr)) -> &mut Self {
        self.0.next();
        nest(self.0.out, self.0.depth + 1, ['[', ']'], |n| {
            fill(&mut Arr(n))
        });
        self
    }
}

/// Renders one top-level object, filled by `fill`, with a trailing newline.
pub fn object(fill: impl FnOnce(&mut Obj)) -> String {
    let mut out = String::new();
    nest(&mut out, 0, ['{', '}'], |n| fill(&mut Obj(n)));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_escapes_and_fixes_precision() {
        let s = object(|o| {
            o.field("s", "a\"b\\c\n\u{1}").field("none", None::<u64>);
            o.field("nan", Fixed(f64::NAN, 1));
            o.arr("cells", |a| {
                a.obj(|c| {
                    c.field("x", Fixed(0.5, 2)).arr("pair", |p| {
                        p.item(1u32).item(true);
                    });
                });
            });
        });
        let want = "{\n  \"s\": \"a\\\"b\\\\c\\n\\u0001\",\n  \"none\": null,\n  \
                    \"nan\": null,\n  \"cells\": [\n    {\"x\": 0.50, \"pair\": [1, true]}\n  ]\n}\n";
        assert_eq!(s, want);
    }
}
