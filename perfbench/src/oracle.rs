//! Reference answers and result comparison.
//!
//! The three Dev/Advertiser shapes are single-table queries over `ads`;
//! their answers are computed here, naively, from the generated rows the
//! benchmark loaded. Every other shape is answered by the engine itself
//! with `pipeline_fusion`, `dynamic_filtering` and `compiled_expressions`
//! off (see `workload::reference_session`).
//!
//! Comparison is order-insensitive unless the query has an ORDER BY.
//! Doubles match within a relative tolerance of [`DOUBLE_REL_TOL`]
//! (aggregation order differs between plans and drivers); every other
//! type matches exactly.

use presto_common::Value;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Relative tolerance for doubles: |a − b| ≤ tol × max(1, |a|, |b|).
pub const DOUBLE_REL_TOL: f64 = 1e-9;

/// How a result must be compared with its reference.
#[derive(Debug, Clone, PartialEq)]
pub enum Order {
    /// Any row order.
    Unordered,
    /// Exactly the reference order.
    Ordered,
    /// `ORDER BY <key> DESC LIMIT n` over a key with ties: the reference
    /// holds the full, unlimited result sorted on `key`; any `n` rows a
    /// correct engine may pick are accepted.
    TopDesc { key: usize, limit: usize },
}

/// The expected answer to one query text.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub rows: Vec<Vec<Value>>,
    pub order: Order,
}

impl Reference {
    pub fn new(rows: Vec<Vec<Value>>, sql: &str) -> Reference {
        let order = if sql.to_ascii_uppercase().contains("ORDER BY") {
            Order::Ordered
        } else {
            Order::Unordered
        };
        Reference { rows, order }
    }

    /// Check `actual` against this reference; `Err` names the first
    /// difference.
    pub fn check(&self, actual: &[Vec<Value>]) -> Result<(), String> {
        match &self.order {
            Order::Ordered => rows_match(&self.rows, actual),
            Order::Unordered => {
                let mut expected = self.rows.clone();
                let mut actual = actual.to_vec();
                expected.sort_by(|a, b| cmp_rows(a, b));
                actual.sort_by(|a, b| cmp_rows(a, b));
                rows_match(&expected, &actual)
            }
            Order::TopDesc { key, limit } => check_top_desc(&self.rows, actual, *key, *limit),
        }
    }

    /// Make this reference wrong on purpose (the benchmark's self-check).
    pub fn corrupt(&mut self) {
        let mut extra = self
            .rows
            .first()
            .cloned()
            .unwrap_or_else(|| vec![Value::Bigint(0)]);
        if let Some(v) = extra.first_mut() {
            *v = Value::varchar("corrupted reference");
        }
        self.rows.push(extra);
    }
}

fn rows_match(expected: &[Vec<Value>], actual: &[Vec<Value>]) -> Result<(), String> {
    if expected.len() != actual.len() {
        return Err(format!(
            "expected {} rows, got {}",
            expected.len(),
            actual.len()
        ));
    }
    for (i, (e, a)) in expected.iter().zip(actual).enumerate() {
        if !row_matches(e, a) {
            return Err(format!("row {i}: expected {e:?}, got {a:?}"));
        }
    }
    Ok(())
}

fn row_matches(expected: &[Value], actual: &[Value]) -> bool {
    expected.len() == actual.len() && expected.iter().zip(actual).all(|(x, y)| values_match(x, y))
}

fn check_top_desc(
    full: &[Vec<Value>],
    actual: &[Vec<Value>],
    key: usize,
    limit: usize,
) -> Result<(), String> {
    let want = full.len().min(limit);
    if actual.len() != want {
        return Err(format!("expected {want} rows, got {}", actual.len()));
    }
    // Sorted on the key, descending.
    if actual
        .windows(2)
        .any(|w| cmp_value(&w[0][key], &w[1][key]) == Ordering::Less)
    {
        return Err("rows are not in descending key order".to_string());
    }
    // The keys are exactly the top `want` keys of the full result.
    for (i, (e, a)) in full.iter().zip(actual).enumerate() {
        if !values_match(&e[key], &a[key]) {
            return Err(format!("row {i}: key {:?}, expected {:?}", a[key], e[key]));
        }
    }
    // Every row is a row of the full result, and none repeats.
    let mut pool: Vec<&Vec<Value>> = full.iter().collect();
    for row in actual {
        match pool.iter().position(|e| row_matches(e, row)) {
            Some(p) => {
                pool.swap_remove(p);
            }
            None => return Err(format!("row {row:?} is not in the reference result")),
        }
    }
    Ok(())
}

pub fn values_match(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => {
            x == y || (x - y).abs() <= DOUBLE_REL_TOL * 1f64.max(x.abs()).max(y.abs())
        }
        _ => a == b,
    }
}

fn rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Boolean(_) => 1,
        Value::Bigint(_) => 2,
        Value::Double(_) => 3,
        Value::Varchar(_) => 4,
        Value::Date(_) => 5,
        Value::Timestamp(_) => 6,
    }
}

fn cmp_value(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Boolean(x), Value::Boolean(y)) => x.cmp(y),
        (Value::Bigint(x), Value::Bigint(y))
        | (Value::Date(x), Value::Date(y))
        | (Value::Timestamp(x), Value::Timestamp(y)) => x.cmp(y),
        (Value::Double(x), Value::Double(y)) => x.total_cmp(y),
        (Value::Varchar(x), Value::Varchar(y)) => x.cmp(y),
        _ => rank(a).cmp(&rank(b)),
    }
}

fn cmp_rows(a: &[Value], b: &[Value]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| cmp_value(x, y))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.len().cmp(&b.len()))
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Bigint(i) => *i,
        _ => 0,
    }
}

fn dbl(v: &Value) -> f64 {
    match v {
        Value::Double(d) => *d,
        _ => 0.0,
    }
}

/// The number following `marker` in `sql`.
fn number(sql: &str, marker: &str) -> Option<f64> {
    let at = sql.find(marker)? + marker.len();
    let digits: String = sql[at..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    digits.parse().ok()
}

fn param(sql: &str, marker: &str) -> Option<i64> {
    number(sql, marker).map(|v| v as i64)
}

/// Interactive shapes whose only parameter is a threshold. Instead of one
/// reference query per threshold, the reference engine answers one query
/// grouped at threshold granularity, and each threshold's answer is rolled
/// up from it here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rollup {
    /// `SELECT o.orderpriority, COUNT(*), AVG(l.quantity) FROM orders o
    /// JOIN lineitem l … WHERE o.totalprice > X GROUP BY o.orderpriority`
    PriorityAboveTotalprice,
    /// `SELECT shipmode, COUNT(*) FROM lineitem WHERE discount >= X
    /// GROUP BY shipmode`
    ShipmodeFromDiscount,
}

impl Rollup {
    /// The shape and threshold of `sql`, if it is one of these shapes.
    pub fn of(sql: &str) -> Option<(Rollup, f64)> {
        if sql.starts_with("SELECT o.orderpriority, COUNT(*), AVG(l.quantity)") {
            Some((
                Rollup::PriorityAboveTotalprice,
                number(sql, "o.totalprice >")?,
            ))
        } else if sql.starts_with("SELECT shipmode, COUNT(*) FROM lineitem") {
            Some((Rollup::ShipmodeFromDiscount, number(sql, "discount >=")?))
        } else {
            None
        }
    }

    /// The reference query at threshold granularity.
    pub fn base_query(&self) -> &'static str {
        match self {
            Rollup::PriorityAboveTotalprice => {
                "SELECT o.orderpriority, o.totalprice, COUNT(*), SUM(l.quantity) \
                 FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey \
                 GROUP BY o.orderpriority, o.totalprice"
            }
            Rollup::ShipmodeFromDiscount => {
                "SELECT shipmode, discount, COUNT(*) FROM lineitem GROUP BY shipmode, discount"
            }
        }
    }

    /// Roll the base answer up to one threshold.
    pub fn answer(&self, base: &[Vec<Value>], threshold: f64) -> Reference {
        // group key → (count, sum)
        let mut groups: BTreeMap<String, (i64, f64)> = BTreeMap::new();
        for r in base {
            let key = match &r[0] {
                Value::Varchar(s) => s.to_string(),
                _ => continue,
            };
            let keep = match self {
                Rollup::PriorityAboveTotalprice => dbl(&r[1]) > threshold,
                Rollup::ShipmodeFromDiscount => dbl(&r[1]) >= threshold,
            };
            if keep {
                let g = groups.entry(key).or_default();
                g.0 += int(&r[2]);
                g.1 += r.get(3).map_or(0.0, dbl);
            }
        }
        let rows = groups
            .into_iter()
            .map(|(k, (n, sum))| match self {
                Rollup::PriorityAboveTotalprice => vec![
                    Value::varchar(k),
                    Value::Bigint(n),
                    Value::Double(sum / n as f64),
                ],
                Rollup::ShipmodeFromDiscount => vec![Value::varchar(k), Value::Bigint(n)],
            })
            .collect();
        Reference {
            rows,
            order: Order::Unordered,
        }
    }
}

/// Answer one Dev/Advertiser query text naively over the generated
/// `ads(ad_id, advertiser_id, clicks, spend, day)` rows, or `None` if the
/// text is not one of the generator's three shapes.
pub fn answer_ads(ads: &[Vec<Value>], sql: &str) -> Option<Reference> {
    let advertiser = param(sql, "advertiser_id =")?;
    let mine = ads.iter().filter(|r| int(&r[1]) == advertiser);
    if sql.starts_with("SELECT day, SUM(clicks), SUM(spend)") {
        let mut by_day: BTreeMap<i64, (i64, f64)> = BTreeMap::new();
        for r in mine {
            let e = by_day.entry(int(&r[4])).or_default();
            e.0 += int(&r[2]);
            e.1 += dbl(&r[3]);
        }
        let rows = by_day
            .into_iter()
            .map(|(d, (c, s))| vec![Value::Bigint(d), Value::Bigint(c), Value::Double(s)])
            .collect();
        Some(Reference {
            rows,
            order: Order::Ordered,
        })
    } else if sql.starts_with("SELECT ad_id, c, rank()") {
        let limit = param(sql, "LIMIT")? as usize;
        let mut by_ad: BTreeMap<i64, i64> = BTreeMap::new();
        for r in mine {
            *by_ad.entry(int(&r[0])).or_default() += int(&r[2]);
        }
        let mut groups: Vec<(i64, i64)> = by_ad.into_iter().collect();
        groups.sort_by_key(|g| std::cmp::Reverse(g.1));
        let rows = groups
            .iter()
            .map(|&(ad, c)| {
                let rank = 1 + groups.iter().filter(|g| g.1 > c).count() as i64;
                vec![Value::Bigint(ad), Value::Bigint(c), Value::Bigint(rank)]
            })
            .collect();
        Some(Reference {
            rows,
            order: Order::TopDesc { key: 1, limit },
        })
    } else if sql.starts_with("SELECT COUNT(*), AVG(spend)") {
        let min_clicks = param(sql, "clicks >")?;
        let (n, sum) = mine
            .filter(|r| int(&r[2]) > min_clicks)
            .fold((0i64, 0f64), |(n, s), r| (n + 1, s + dbl(&r[3])));
        let avg = if n == 0 {
            Value::Null
        } else {
            Value::Double(sum / n as f64)
        };
        Some(Reference {
            rows: vec![vec![Value::Bigint(n), avg]],
            order: Order::Unordered,
        })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ads() -> Vec<Vec<Value>> {
        // (ad_id, advertiser_id, clicks, spend, day)
        [
            (1, 7, 3, 1.5, 0),
            (2, 7, 3, 0.5, 1),
            (3, 7, 5, 2.0, 1),
            (4, 8, 9, 9.0, 0),
        ]
        .iter()
        .map(|&(a, adv, c, s, d)| {
            vec![
                Value::Bigint(a),
                Value::Bigint(adv),
                Value::Bigint(c),
                Value::Double(s),
                Value::Bigint(d),
            ]
        })
        .collect()
    }

    #[test]
    fn naive_shapes() {
        let ads = ads();
        let day = answer_ads(
            &ads,
            "SELECT day, SUM(clicks), SUM(spend) FROM ads WHERE advertiser_id = 7 GROUP BY day ORDER BY day")
            .expect("shape 0");
        assert_eq!(day.rows.len(), 2);
        assert_eq!(day.rows[1][1], Value::Bigint(8));
        let count = answer_ads(
            &ads,
            "SELECT COUNT(*), AVG(spend) FROM ads WHERE advertiser_id = 7 AND clicks > 3",
        )
        .expect("shape 2");
        assert_eq!(count.rows, vec![vec![Value::Bigint(1), Value::Double(2.0)]]);
        let none = answer_ads(
            &ads,
            "SELECT COUNT(*), AVG(spend) FROM ads WHERE advertiser_id = 9 AND clicks > 3",
        )
        .expect("shape 2");
        assert_eq!(none.rows, vec![vec![Value::Bigint(0), Value::Null]]);
    }

    #[test]
    fn top_desc_accepts_any_tie_choice() {
        let ads = ads();
        let top = answer_ads(
            &ads,
            "SELECT ad_id, c, rank() OVER (ORDER BY c DESC) AS r FROM (SELECT ad_id, SUM(clicks) AS c FROM ads WHERE advertiser_id = 7 GROUP BY ad_id) t ORDER BY c DESC LIMIT 2")
            .expect("shape 1");
        let row =
            |a: i64, c: i64, r: i64| vec![Value::Bigint(a), Value::Bigint(c), Value::Bigint(r)];
        assert!(top.check(&[row(3, 5, 1), row(1, 3, 2)]).is_ok());
        assert!(top.check(&[row(3, 5, 1), row(2, 3, 2)]).is_ok());
        assert!(top.check(&[row(1, 3, 2), row(3, 5, 1)]).is_err());
        assert!(top.check(&[row(3, 5, 1), row(2, 3, 3)]).is_err());
        assert!(top.check(&[row(3, 5, 1)]).is_err());
    }

    #[test]
    fn rollups_match_their_shapes() {
        let sql =
            "SELECT shipmode, COUNT(*) FROM lineitem WHERE discount >= 0.04 GROUP BY shipmode";
        let (rollup, t) = Rollup::of(sql).expect("shape 3");
        assert_eq!(t, 0.04);
        let base = vec![
            vec![Value::varchar("AIR"), Value::Double(0.03), Value::Bigint(5)],
            vec![Value::varchar("AIR"), Value::Double(0.04), Value::Bigint(2)],
            vec![
                Value::varchar("SHIP"),
                Value::Double(0.07),
                Value::Bigint(1),
            ],
        ];
        let r = rollup.answer(&base, t);
        assert!(r
            .check(&[
                vec![Value::varchar("SHIP"), Value::Bigint(1)],
                vec![Value::varchar("AIR"), Value::Bigint(2)],
            ])
            .is_ok());
        let sql =
            "SELECT o.orderpriority, COUNT(*), AVG(l.quantity) FROM orders o JOIN lineitem l \
                   ON o.orderkey = l.orderkey WHERE o.totalprice > 150000 GROUP BY o.orderpriority";
        let (rollup, t) = Rollup::of(sql).expect("shape 1");
        assert_eq!(rollup, Rollup::PriorityAboveTotalprice);
        let base = vec![
            vec![
                Value::varchar("1-URGENT"),
                Value::Double(150000.0),
                Value::Bigint(3),
                Value::Double(30.0),
            ],
            vec![
                Value::varchar("1-URGENT"),
                Value::Double(200000.0),
                Value::Bigint(2),
                Value::Double(10.0),
            ],
            vec![
                Value::varchar("1-URGENT"),
                Value::Double(250000.0),
                Value::Bigint(2),
                Value::Double(20.0),
            ],
        ];
        let r = rollup.answer(&base, t);
        assert_eq!(
            r.rows,
            vec![vec![
                Value::varchar("1-URGENT"),
                Value::Bigint(4),
                Value::Double(7.5)
            ]]
        );
    }

    #[test]
    fn doubles_within_tolerance_and_corruption_detected() {
        let mut r = Reference::new(
            vec![vec![Value::varchar("x"), Value::Double(1e6)]],
            "SELECT a, SUM(b) FROM t GROUP BY a",
        );
        assert!(r
            .check(&[vec![Value::varchar("x"), Value::Double(1e6 + 1e-6)]])
            .is_ok());
        assert!(r
            .check(&[vec![Value::varchar("x"), Value::Double(1e6 + 1.0)]])
            .is_err());
        r.corrupt();
        assert!(r
            .check(&[vec![Value::varchar("x"), Value::Double(1e6)]])
            .is_err());
    }
}
