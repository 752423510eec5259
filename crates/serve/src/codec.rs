//! The wire codec every request type reads and writes through: a typed
//! value codec ([`Wire`]), a strict object reader ([`Obj`]) that rejects
//! unknown keys on entry and names fields by dotted [`Path`]s built only
//! when an error is reported, an optional-field writer ([`Fields`]), and
//! one `(value, label)` table per closed label set ([`Label`]).
//!
//! A value that should be an object and is not is a `parse` error;
//! every other malformed value is a `bad_request`.

use crate::request::WireError;
use mpipu_bench::json::Json;
use std::fmt;

/// Where a value sits in the request line, for error messages.
#[derive(Debug, Clone, Copy)]
pub enum Path<'a> {
    /// The top-level object, by name (`"request"`).
    Root(&'static str),
    /// A named field of an object.
    Key(&'a Path<'a>, &'static str),
    /// An element of an array.
    Index(&'a Path<'a>, usize),
}

impl Path<'_> {
    /// The path of field `key` below this one.
    pub fn key(&self, key: &'static str) -> Path<'_> {
        Path::Key(self, key)
    }
}

impl fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Path::Root(name) => f.write_str(name),
            Path::Key(Path::Root(_), key) => f.write_str(key),
            Path::Key(parent, key) => write!(f, "{parent}.{key}"),
            Path::Index(parent, i) => write!(f, "{parent}[{i}]"),
        }
    }
}

/// A type with one canonical wire form (unsized views only write).
pub trait Wire {
    /// The canonical JSON value.
    fn write(&self) -> Json;
    /// Read a value strictly; `at` names it in error messages.
    fn read(j: &Json, at: Path<'_>) -> Result<Self, WireError>
    where
        Self: Sized;
}

/// A `bad_request` saying what the value at `at` must be.
pub fn expected(at: Path<'_>, what: &str) -> WireError {
    WireError::bad_request(format!("{at} must be {what}"))
}

/// The string at `at`, borrowed.
pub fn str_at<'j>(j: &'j Json, at: Path<'_>) -> Result<&'j str, WireError> {
    j.as_str().ok_or_else(|| expected(at, "a string"))
}

impl Wire for u64 {
    fn write(&self) -> Json {
        Json::UInt(*self)
    }

    fn read(j: &Json, at: Path<'_>) -> Result<u64, WireError> {
        match j {
            Json::UInt(u) => Ok(*u),
            _ => Err(expected(at, "a non-negative integer")),
        }
    }
}

macro_rules! narrow_uint {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn write(&self) -> Json {
                Json::from(*self)
            }

            fn read(j: &Json, at: Path<'_>) -> Result<$t, WireError> {
                <$t>::try_from(u64::read(j, at)?)
                    .map_err(|_| WireError::bad_request(format!("{at} is out of range")))
            }
        }
    )*};
}

narrow_uint!(u32, usize);

impl Wire for f64 {
    fn write(&self) -> Json {
        Json::Num(*self)
    }

    fn read(j: &Json, at: Path<'_>) -> Result<f64, WireError> {
        j.as_f64()
            .filter(|x| x.is_finite())
            .ok_or_else(|| expected(at, "a finite number"))
    }
}

impl Wire for str {
    fn write(&self) -> Json {
        Json::str(self)
    }
}

impl Wire for String {
    fn write(&self) -> Json {
        Json::str(self)
    }

    fn read(j: &Json, at: Path<'_>) -> Result<String, WireError> {
        str_at(j, at).map(str::to_string)
    }
}

impl<T: Wire> Wire for [T] {
    fn write(&self) -> Json {
        Json::Arr(self.iter().map(Wire::write).collect())
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn write(&self) -> Json {
        self.as_slice().write()
    }

    fn read(j: &Json, at: Path<'_>) -> Result<Vec<T>, WireError> {
        let items = j.as_arr().ok_or_else(|| expected(at, "an array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::read(item, Path::Index(&at, i)))
            .collect()
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn write(&self) -> Json {
        self.as_slice().write()
    }

    fn read(j: &Json, at: Path<'_>) -> Result<[T; N], WireError> {
        match j.as_arr() {
            Some(items) if items.len() == N => Vec::read(j, at)?
                .try_into()
                .map_err(|_| unreachable!("length checked above")),
            _ => Err(expected(at, &format!("an array of {N} elements"))),
        }
    }
}

/// A closed label set: one `(value, label)` table parses, prints, and
/// lists the expected labels.
pub trait Label: Copy + PartialEq + 'static {
    /// What a label names, in error messages (`"tile"`).
    const NOUN: &'static str;
    /// Every value with its stable wire label, in catalog order.
    const LABELS: &'static [(Self, &'static str)];

    /// The stable wire label.
    fn label(self) -> &'static str {
        let entry = Self::LABELS.iter().find(|(v, _)| *v == self);
        entry.expect("every value has a label").1
    }

    /// The value `label` names; an unknown label is a `bad_request`
    /// listing the table.
    fn from_label(label: &str) -> Result<Self, WireError> {
        match Self::LABELS.iter().find(|(_, l)| *l == label) {
            Some((v, _)) => Ok(*v),
            None => {
                let labels: Vec<&str> = Self::LABELS.iter().map(|(_, l)| *l).collect();
                Err(WireError::bad_request(format!(
                    "unknown {} {label:?} (expected {})",
                    Self::NOUN,
                    labels.join(", ")
                )))
            }
        }
    }
}

impl<T: Label> Wire for T {
    fn write(&self) -> Json {
        Json::str(self.label())
    }

    fn read(j: &Json, at: Path<'_>) -> Result<T, WireError> {
        T::from_label(str_at(j, at)?)
    }
}

/// A strict reader over one JSON object.
#[derive(Debug)]
pub struct Obj<'a> {
    fields: &'a [(String, Json)],
    at: Path<'a>,
}

impl<'a> Obj<'a> {
    /// Open `j` as an object whose keys all come from `keys`, checked
    /// before any field is read.
    pub fn open(j: &'a Json, at: Path<'a>, keys: &[&str]) -> Result<Obj<'a>, WireError> {
        let obj = Obj::any(j, at)?;
        obj.only(keys)?;
        Ok(obj)
    }

    /// Open `j` as an object whose keys are checked later, if at all.
    pub fn any(j: &'a Json, at: Path<'a>) -> Result<Obj<'a>, WireError> {
        match j {
            Json::Obj(fields) => Ok(Obj { fields, at }),
            _ => Err(WireError::parse(format!("{at} must be a JSON object"))),
        }
    }

    /// Reject any key outside `keys` (the envelope's `req` is known at
    /// the root).
    pub fn only(&self, keys: &[&str]) -> Result<(), WireError> {
        let root = matches!(self.at, Path::Root(_));
        let unknown = self
            .fields
            .iter()
            .find(|(k, _)| !(keys.contains(&k.as_str()) || root && k == "req"));
        match unknown {
            None => Ok(()),
            Some((key, _)) => Err(WireError::bad_request(format!(
                "unknown field {key:?} in {} (allowed: {}{})",
                self.at,
                if root { "req, " } else { "" },
                keys.join(", ")
            ))),
        }
    }

    /// The raw value under `key` (the first, if it repeats).
    pub fn raw(&self, key: &str) -> Option<&'a Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The raw value under `key`, which must be present.
    pub fn need(&self, key: &str) -> Result<&'a Json, WireError> {
        self.raw(key).ok_or_else(|| self.missing(key))
    }

    /// The error for a required field that is absent.
    pub fn missing(&self, key: &str) -> WireError {
        WireError::bad_request(format!("{} is missing \"{key}\"", self.at))
    }

    /// An optional field.
    pub fn opt<T: Wire>(&self, key: &'static str) -> Result<Option<T>, WireError> {
        self.raw(key)
            .map(|v| T::read(v, self.at.key(key)))
            .transpose()
    }

    /// A required field.
    pub fn req<T: Wire>(&self, key: &'static str) -> Result<T, WireError> {
        T::read(self.need(key)?, self.at.key(key))
    }

    /// An optional count or budget, which must not be zero.
    pub fn nonzero<T>(&self, key: &'static str) -> Result<Option<T>, WireError>
    where
        T: Wire + Default + PartialEq,
    {
        match self.opt(key)? {
            Some(v) if v == T::default() => Err(WireError::bad_request(format!(
                "{} must be >= 1",
                self.at.key(key)
            ))),
            v => Ok(v),
        }
    }
}

/// Builds a JSON object field by field, in wire order.
#[derive(Debug, Default)]
pub struct Fields(Vec<(String, Json)>);

impl Fields {
    /// Write a field.
    pub fn put(self, key: &str, value: &(impl Wire + ?Sized)) -> Fields {
        self.json(key, value.write())
    }

    /// Write a field already in JSON form.
    pub fn json(mut self, key: &str, value: Json) -> Fields {
        self.0.push((key.to_string(), value));
        self
    }

    /// Write an optional field, only when it is set.
    pub fn opt(self, key: &str, value: &Option<impl Wire>) -> Fields {
        match value {
            Some(v) => self.put(key, v),
            None => self,
        }
    }
}

impl From<Fields> for Json {
    fn from(fields: Fields) -> Json {
        Json::Obj(fields.0)
    }
}

/// Implement [`Wire`] for a struct of `Option` fields from one list of
/// them, in wire order: read in that order (so the first error is the
/// one reported), written only when set.
macro_rules! optional_fields {
    ($ty:ident { $($key:ident),* $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            fn write(&self) -> ::mpipu_bench::json::Json {
                $crate::codec::Fields::default()
                    $(.opt(stringify!($key), &self.$key))*
                    .into()
            }

            fn read(
                j: &::mpipu_bench::json::Json,
                at: $crate::codec::Path<'_>,
            ) -> Result<$ty, $crate::request::WireError> {
                let o = $crate::codec::Obj::open(j, at, &[$(stringify!($key)),*])?;
                Ok($ty { $($key: o.opt(stringify!($key))?),* })
            }
        }
    };
}

pub(crate) use optional_fields;
