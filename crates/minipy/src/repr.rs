//! Value rendering (`repr`-style), used for cell outputs and `print`.

use std::collections::HashSet;

use kishu_kernel::{Heap, Instance, ObjId, ObjKind};

const MAX_DEPTH: usize = 4;
const MAX_ITEMS: usize = 10;

/// Python-`repr`-like rendering: strings quoted, containers bracketed,
/// cycles elided, long collections truncated with `...`.
pub fn repr(heap: &Heap, id: ObjId) -> String {
    let mut seen = HashSet::new();
    render(heap, id, 0, true, &mut seen)
}

/// Python-`str`-like rendering: identical to [`repr`] except a top-level
/// string is unquoted (what `print` shows).
pub fn display(heap: &Heap, id: ObjId) -> String {
    if let ObjKind::Str(s) = heap.kind(id) {
        return s.clone();
    }
    repr(heap, id)
}

fn render(heap: &Heap, id: ObjId, depth: usize, quote_str: bool, seen: &mut HashSet<ObjId>) -> String {
    if depth > MAX_DEPTH {
        return "...".to_string();
    }
    match heap.kind(id) {
        ObjKind::None => "None".to_string(),
        ObjKind::Bool(true) => "True".to_string(),
        ObjKind::Bool(false) => "False".to_string(),
        ObjKind::Int(v) => v.to_string(),
        ObjKind::Float(v) => {
            if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e16 {
                format!("{v:.1}")
            } else {
                format!("{v}")
            }
        }
        ObjKind::Str(s) => {
            if quote_str {
                format!("'{s}'")
            } else {
                s.clone()
            }
        }
        ObjKind::List(items) => container(heap, id, items, "[", "]", depth, seen),
        ObjKind::Tuple(items) => container(heap, id, items, "(", ")", depth, seen),
        ObjKind::Set(items) => {
            if items.is_empty() {
                "set()".to_string()
            } else {
                container(heap, id, items, "{", "}", depth, seen)
            }
        }
        ObjKind::Dict(pairs) => {
            if !seen.insert(id) {
                return "{...}".to_string();
            }
            let mut parts = Vec::new();
            for (k, v) in pairs.iter().take(MAX_ITEMS) {
                parts.push(format!(
                    "{}: {}",
                    render(heap, *k, depth + 1, true, seen),
                    render(heap, *v, depth + 1, true, seen)
                ));
            }
            if pairs.len() > MAX_ITEMS {
                parts.push("...".to_string());
            }
            seen.remove(&id);
            format!("{{{}}}", parts.join(", "))
        }
        ObjKind::NdArray(values) => {
            let shown: Vec<String> = values.iter().take(6).map(|v| format!("{v:.4}")).collect();
            if values.len() > 6 {
                format!("array([{}, ...], n={})", shown.join(", "), values.len())
            } else {
                format!("array([{}])", shown.join(", "))
            }
        }
        ObjKind::Series { name, values } => {
            if !seen.insert(id) {
                return format!("Series(name='{name}', ...)");
            }
            let inner = render(heap, *values, depth + 1, true, seen);
            seen.remove(&id);
            format!("Series(name='{name}', values={inner})")
        }
        ObjKind::DataFrame(cols) => {
            let names: Vec<&str> = cols.iter().map(|(n, _)| n.as_str()).collect();
            format!("DataFrame(columns=[{}])", names.join(", "))
        }
        ObjKind::Instance(inst) => {
            let Instance { class_name, attrs } = &**inst;
            if !seen.insert(id) {
                return format!("<{class_name} ...>");
            }
            let mut parts = Vec::new();
            for (k, v) in attrs.iter().take(MAX_ITEMS) {
                parts.push(format!("{k}={}", render(heap, *v, depth + 1, true, seen)));
            }
            seen.remove(&id);
            format!("<{class_name} {}>", parts.join(", "))
        }
        ObjKind::Function(f) => format!("<function {}({})>", f.name, f.params.join(", ")),
        ObjKind::Generator { token } => format!("<generator at 0x{token:x}>"),
        ObjKind::External(ext) => format!(
            "<external class={} bytes={} epoch={}>",
            ext.class.0,
            ext.payload.len(),
            ext.epoch
        ),
    }
}

fn container(
    heap: &Heap,
    id: ObjId,
    items: &[ObjId],
    open: &str,
    close: &str,
    depth: usize,
    seen: &mut HashSet<ObjId>,
) -> String {
    if !seen.insert(id) {
        return format!("{open}...{close}");
    }
    let mut parts: Vec<String> = items
        .iter()
        .take(MAX_ITEMS)
        .map(|i| render(heap, *i, depth + 1, true, seen))
        .collect();
    if items.len() > MAX_ITEMS {
        parts.push("...".to_string());
    }
    seen.remove(&id);
    format!("{open}{}{close}", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kishu_kernel::Heap;

    #[test]
    fn primitives_render_like_python() {
        let mut heap = Heap::new();
        let none = heap.alloc(ObjKind::None);
        let t = heap.alloc(ObjKind::Bool(true));
        let i = heap.alloc(ObjKind::Int(-3));
        let f = heap.alloc(ObjKind::Float(2.0));
        let s = heap.alloc(ObjKind::Str("hi".into()));
        assert_eq!(repr(&heap, none), "None");
        assert_eq!(repr(&heap, t), "True");
        assert_eq!(repr(&heap, i), "-3");
        assert_eq!(repr(&heap, f), "2.0");
        assert_eq!(repr(&heap, s), "'hi'");
        assert_eq!(display(&heap, s), "hi");
    }

    #[test]
    fn containers_nest() {
        let mut heap = Heap::new();
        let a = heap.alloc(ObjKind::Int(1));
        let b = heap.alloc(ObjKind::Str("x".into()));
        let inner = heap.alloc(ObjKind::List(vec![a, b]));
        let outer = heap.alloc(ObjKind::Tuple(vec![inner]));
        assert_eq!(repr(&heap, outer), "([1, 'x'])");
    }

    #[test]
    fn cycles_are_elided() {
        let mut heap = Heap::new();
        let ls = heap.alloc(ObjKind::List(vec![]));
        heap.modify(ls, |k| {
            if let ObjKind::List(items) = k {
                items.push(ls);
            }
        });
        assert_eq!(repr(&heap, ls), "[[...]]");
    }

    #[test]
    fn long_collections_truncate() {
        let mut heap = Heap::new();
        let items: Vec<ObjId> = (0..20).map(|i| heap.alloc(ObjKind::Int(i))).collect();
        let ls = heap.alloc(ObjKind::List(items));
        let r = repr(&heap, ls);
        assert!(r.ends_with(", ...]"));
    }

    #[test]
    fn arrays_show_length() {
        let mut heap = Heap::new();
        let arr = heap.alloc(ObjKind::NdArray(vec![0.5; 100]));
        let r = repr(&heap, arr);
        assert!(r.contains("n=100"));
    }
}
