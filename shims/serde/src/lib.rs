//! Offline `serde` shim.
//!
//! Instead of upstream's visitor-based data model, this shim serializes
//! through a JSON-like [`Value`] tree: `Serialize` renders a value into the
//! tree, `Deserialize` reconstructs from it, and the `serde_json` shim
//! handles text encoding. Integers stay exact (`i64`/`u64` variants) so
//! round-trips are lossless.

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

mod json;
pub use json::{parse, write_compact, write_pretty};

/// A JSON value tree. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a field of an object value.
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::new(format!("missing field `{name}`"))),
            other => Err(Error::new(format!(
                "expected object with field `{name}`, got {}",
                other.kind()
            ))),
        }
    }

    /// Looks up an element of an array value.
    pub fn index(&self, i: usize) -> Result<&Value, Error> {
        match self {
            Value::Array(items) => items
                .get(i)
                .ok_or_else(|| Error::new(format!("missing array element {i}"))),
            other => Err(Error::new(format!("expected array, got {}", other.kind()))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Serialization / deserialization error.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    pub fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde: {}", self.message)
    }
}

impl std::error::Error for Error {}

/// Renders `self` into a [`Value`] tree.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Reconstructs `Self` from a [`Value`] tree.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------- primitives

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::new(format!("expected bool, got {}", other.kind()))),
        }
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::UInt(n) => *n,
                    Value::Int(n) if *n >= 0 => *n as u64,
                    Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 => *f as u64,
                    other => {
                        return Err(Error::new(format!(
                            "expected unsigned integer, got {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::new(format!("integer {n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::Int(n) => *n,
                    Value::UInt(n) if *n <= i64::MAX as u64 => *n as i64,
                    Value::Float(f) if f.fract() == 0.0 => *f as i64,
                    other => {
                        return Err(Error::new(format!(
                            "expected integer, got {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::new(format!("integer {n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_int!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let f = *self as f64;
                if f.is_finite() {
                    Value::Float(f)
                } else {
                    // JSON has no non-finite literals; encode as strings and
                    // accept them back below.
                    Value::String(format!("{f}"))
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(n) => Ok(*n as $t),
                    Value::UInt(n) => Ok(*n as $t),
                    Value::String(s) => s
                        .parse::<$t>()
                        .map_err(|_| Error::new(format!("bad float literal `{s}`"))),
                    other => Err(Error::new(format!(
                        "expected number, got {}",
                        other.kind()
                    ))),
                }
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(Error::new(format!("expected string, got {}", other.kind()))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(Error::new(format!("expected char, got {}", other.kind()))),
        }
    }
}

// ---------------------------------------------------------------- containers

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::new(format!("expected array, got {}", other.kind()))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::from_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::new(format!("expected array of {N} elements, got {len}")))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident : $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                Ok(($($t::from_value(v.index($i)?)?,)+))
            }
        }
    )*};
}
impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

// ---------------------------------------------------------------- std::net

impl Serialize for std::net::IpAddr {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for std::net::IpAddr {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => s
                .parse()
                .map_err(|_| Error::new(format!("bad IP address `{s}`"))),
            other => Err(Error::new(format!(
                "expected IP address string, got {}",
                other.kind()
            ))),
        }
    }
}

/// Through `IpAddr::V4`, so the text is the one an `IpAddr` field holding
/// the same address always produced.
impl Serialize for std::net::Ipv4Addr {
    fn to_value(&self) -> Value {
        std::net::IpAddr::V4(*self).to_value()
    }
}

impl Deserialize for std::net::Ipv4Addr {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match std::net::IpAddr::from_value(v)? {
            std::net::IpAddr::V4(v4) => Ok(v4),
            other => Err(Error::new(format!("expected IPv4 address, got `{other}`"))),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
