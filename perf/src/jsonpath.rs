//! Field access on parsed JSON documents (status replies, metrics
//! scrapes, result files).

use baryon_sim::json::Json;

/// The value at a `.`-separated path of object keys.
pub fn get<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(doc, |node, key| match node {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    })
}

/// The value of the single object key `key`, even when it contains dots
/// (metric names do).
pub fn field<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    match doc {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A string at `path`.
pub fn str_at<'a>(doc: &'a Json, path: &str) -> Option<&'a str> {
    match get(doc, path)? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

/// A number at `path`, whatever its JSON representation.
pub fn num_at(doc: &Json, path: &str) -> Option<f64> {
    as_num(get(doc, path)?)
}

/// A non-negative integer at `path`.
pub fn u64_at(doc: &Json, path: &str) -> Option<u64> {
    match get(doc, path)? {
        Json::U64(n) => Some(*n),
        Json::I64(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

/// A JSON number as `f64`.
pub fn as_num(value: &Json) -> Option<f64> {
    match value {
        Json::U64(n) => Some(*n as f64),
        Json::I64(n) => Some(*n as f64),
        Json::F64(x) => Some(*x),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baryon_sim::json::parse;

    #[test]
    fn paths_walk_nested_objects() {
        let doc =
            parse(r#"{"a":{"b":{"c":3}},"s":"x","f":1.5,"neg":-2,"m":{"k.v":7}}"#).expect("valid");
        assert_eq!(u64_at(&doc, "a.b.c"), Some(3));
        assert_eq!(str_at(&doc, "s"), Some("x"));
        assert_eq!(num_at(&doc, "f"), Some(1.5));
        assert_eq!(num_at(&doc, "neg"), Some(-2.0));
        assert_eq!(u64_at(&doc, "neg"), None);
        assert_eq!(get(&doc, "a.x"), None);
        assert_eq!(str_at(&doc, "a"), None);
        let m = get(&doc, "m").expect("m");
        assert_eq!(field(m, "k.v").and_then(as_num), Some(7.0));
    }
}
