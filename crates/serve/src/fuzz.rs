//! The seeded JSON mutator behind the service's request fuzzers: the
//! `/v1/exec` request fuzzer in `exec` and the `/v1/sweeps` spec fuzzer
//! in `server`.

use qsc_json::Value;

/// Tiny splitmix64 step, the generator of `qsc_sim::http`'s fuzzer.
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Index paths to every node of `v`, in depth-first order.
fn nodes(v: &Value, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(path.clone());
    let children: Vec<&Value> = match v {
        Value::Arr(items) => items.iter().collect(),
        Value::Obj(fields) => fields.iter().map(|(_, item)| item).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        nodes(child, path, out);
        path.pop();
    }
}

fn node_mut<'v>(v: &'v mut Value, path: &[usize]) -> &'v mut Value {
    path.iter().fold(v, |v, &i| match v {
        Value::Arr(items) => &mut items[i],
        Value::Obj(fields) => &mut fields[i].1,
        _ => unreachable!("paths only descend into containers"),
    })
}

/// One random edit of `doc`: a number swapped for an edge value, a
/// node of another type, a field dropped or added, a string swapped for
/// one of `names`, or one node grafted over another.
pub(crate) fn mutate(doc: &mut Value, state: &mut u64, names: &[&str]) {
    const NUMBERS: [f64; 6] = [-1.0, 0.0, 40.0, 64.0, 9_007_199_254_740_992.0, 1e300];
    let mut all = Vec::new();
    nodes(doc, &mut Vec::new(), &mut all);
    let r = splitmix(state);
    let path = &all[(r >> 8) as usize % all.len()];
    let pick = (r >> 32) as usize;
    let graft = node_mut(doc, &all[pick % all.len()]).clone();
    let node = node_mut(doc, path);
    match r % 5 {
        0 => *node = Value::Num(NUMBERS[pick % NUMBERS.len()]),
        1 => {
            *node = [
                Value::Null,
                Value::Bool(true),
                Value::Str("x".into()),
                Value::Arr(Vec::new()),
                Value::Obj(Vec::new()),
                Value::Num(0.5),
            ][pick % 6]
                .clone()
        }
        2 => *node = Value::Str(names[pick % names.len()].into()),
        3 => match node {
            Value::Obj(fields) if pick.is_multiple_of(2) && !fields.is_empty() => {
                fields.remove(pick / 2 % fields.len());
            }
            Value::Obj(fields) => fields.push(("extra".into(), Value::Num(1.0))),
            Value::Arr(items) if pick.is_multiple_of(2) => {
                items.pop();
            }
            Value::Arr(items) => items.push(graft),
            _ => *node = graft,
        },
        _ => *node = graft,
    }
}
