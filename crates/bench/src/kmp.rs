//! Classic Knuth–Morris–Pratt string search (§3.1 of the paper).
//!
//! The reference point for experiment E6 (OPS degenerates to KMP on
//! constant-equality patterns): `experiments kmp` and the `kmp_vs_ops`
//! bench run it beside the engines.  The `next` array follows the paper's (and Knuth,
//! Morris & Pratt's) *optimized* failure function: `next[j]` is the
//! largest `k < j` such that the pattern prefix of length `k-1` matches
//! the text behind the cursor **and** `p_k ≠ p_j` (so re-comparing `p_k`
//! cannot fail the same way again); 0 means "advance the input".

use sqlts_core::{EvalCounter, TraceEvent};

/// The compiled KMP automaton for a pattern over any equatable alphabet.
#[derive(Clone, Debug)]
pub struct Kmp<T: PartialEq + Clone> {
    pattern: Vec<T>,
    /// 1-based `next` array (`next[0]` is padding).
    next: Vec<usize>,
    /// Longest proper border of the whole pattern (for match
    /// continuation with overlaps).
    border: usize,
}

impl<T: PartialEq + Clone> Kmp<T> {
    /// Compile a pattern.  `O(m)`.
    pub fn new(pattern: &[T]) -> Kmp<T> {
        let m = pattern.len();
        // f[j] = length of the longest proper border of the length-j
        // prefix (the classic failure function).
        let mut f = vec![0usize; m + 1];
        for j in 2..=m {
            let mut k = f[j - 1];
            while k > 0 && pattern[j - 1] != pattern[k] {
                k = f[k];
            }
            if pattern[j - 1] == pattern[k] {
                k += 1;
            }
            f[j] = k;
        }
        // The *optimized* next: fall back past borders whose next symbol
        // equals p_j (re-comparing it would fail identically).
        let mut next = vec![0usize; m + 1];
        for j in 2..=m {
            let b = f[j - 1];
            next[j] = if pattern[b] == pattern[j - 1] {
                next[b + 1]
            } else {
                b + 1
            };
        }
        Kmp {
            pattern: pattern.to_vec(),
            next,
            border: f[m],
        }
    }

    /// Pattern length.
    pub fn len(&self) -> usize {
        self.pattern.len()
    }

    /// `true` iff the pattern is empty.
    pub fn is_empty(&self) -> bool {
        self.pattern.is_empty()
    }

    /// The 1-based `next` array (index 0 is padding).
    pub fn next_array(&self) -> &[usize] {
        &self.next
    }

    /// Find all (possibly overlapping) occurrences; returns 0-based start
    /// positions.  `counter` tallies symbol comparisons.
    pub fn find_all(&self, text: &[T], counter: &EvalCounter) -> Vec<usize> {
        let m = self.len();
        let n = text.len();
        let mut out = Vec::new();
        if m == 0 || n < m {
            return out;
        }
        let mut i = 0usize; // 0-based text cursor
        let mut j = 1usize; // 1-based pattern cursor
                            // A governed counter stops the scan early; `out` is then a prefix
                            // of the full occurrence list.
        while i < n && !counter.tripped() {
            counter.bump();
            let eq = text[i] == self.pattern[j - 1];
            counter.record_test(i + 1, j, eq);
            if eq {
                i += 1;
                j += 1;
                if j > m {
                    if counter.match_found() {
                        if counter.armed() {
                            counter.emit(TraceEvent::MatchEmitted {
                                start: (i - m + 1) as u32,
                                end: i as u32,
                            });
                        }
                        out.push(i - m);
                    }
                    // Standard continuation: longest border of the full
                    // pattern (use the failure function, not the
                    // optimized next, to keep overlapping matches).
                    j = self.border + 1;
                }
            } else {
                let k = self.next[j];
                if counter.armed() {
                    counter.emit(TraceEvent::Next {
                        j: j as u32,
                        k: k as u32,
                    });
                }
                j = k;
                if j == 0 {
                    i += 1;
                    j = 1;
                }
            }
        }
        out
    }

    /// First occurrence, or `None`.
    pub fn find_first(&self, text: &[T], counter: &EvalCounter) -> Option<usize> {
        // Cheap reuse: stop at the first hit.
        let m = self.len();
        let n = text.len();
        if m == 0 || n < m {
            return None;
        }
        let mut i = 0usize;
        let mut j = 1usize;
        while i < n && !counter.tripped() {
            counter.bump();
            let eq = text[i] == self.pattern[j - 1];
            counter.record_test(i + 1, j, eq);
            if eq {
                i += 1;
                j += 1;
                if j > m {
                    return Some(i - m);
                }
            } else {
                j = self.next[j];
                if j == 0 {
                    i += 1;
                    j = 1;
                }
            }
        }
        None
    }
}

/// Convenience: search a byte-string pattern in a byte-string text.
pub fn find_all_str(pattern: &str, text: &str, counter: &EvalCounter) -> Vec<usize> {
    Kmp::new(pattern.as_bytes()).find_all(text.as_bytes(), counter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_next_array() {
        // §3.1 uses the pattern "abcabcacab" from Knuth, Morris & Pratt.
        // The canonical optimized next values (1-based, from the KMP
        // paper) are: 0 1 1 0 1 1 0 5 0 1.
        let kmp = Kmp::new("abcabcacab".as_bytes());
        assert_eq!(&kmp.next_array()[1..], &[0, 1, 1, 0, 1, 1, 0, 5, 0, 1]);
    }

    #[test]
    fn paper_example_search() {
        // The paper's §3.1 text: the pattern occurs at (0-based) 15? —
        // "babcbabcabcaabcabcabcacabc" contains "abcabcacab" starting at
        // position 15.
        let c = EvalCounter::new();
        let hits = find_all_str("abcabcacab", "babcbabcabcaabcabcabcacabc", &c);
        assert_eq!(hits, vec![15]);
        // Linear complexity: at most 2n comparisons.
        assert!(c.total() <= 2 * 26);
    }

    #[test]
    fn finds_all_overlapping_occurrences() {
        let c = EvalCounter::new();
        assert_eq!(find_all_str("aa", "aaaa", &c), vec![0, 1, 2]);
        assert_eq!(
            find_all_str("aba", "ababa", &EvalCounter::new()),
            vec![0, 2]
        );
    }

    #[test]
    fn no_match_and_edges() {
        let c = EvalCounter::new();
        assert!(find_all_str("xyz", "aaaa", &c).is_empty());
        assert!(find_all_str("longer", "abc", &c).is_empty());
        assert!(find_all_str("", "abc", &c).is_empty());
        let kmp: Kmp<u8> = Kmp::new(b"");
        assert!(kmp.is_empty());
        assert_eq!(kmp.find_first(b"abc", &c), None);
    }

    #[test]
    fn find_first_matches_find_all_head() {
        let texts = ["abcabcabcacab", "aabaabaaab", "mississippi"];
        let pats = ["abcabcacab", "aabaaab", "issi"];
        for (t, p) in texts.iter().zip(pats) {
            let all = find_all_str(p, t, &EvalCounter::new());
            let first = Kmp::new(p.as_bytes()).find_first(t.as_bytes(), &EvalCounter::new());
            assert_eq!(all.first().copied(), first, "pattern {p} in {t}");
        }
    }

    #[test]
    fn works_over_integer_alphabets() {
        let kmp = Kmp::new(&[10i64, 11, 15]);
        let c = EvalCounter::new();
        let hits = kmp.find_all(&[9, 10, 11, 15, 10, 11, 15], &c);
        assert_eq!(hits, vec![1, 4]);
    }

    #[test]
    fn linear_comparison_bound() {
        // KMP's guarantee: ≤ 2n comparisons, never backtracking the text.
        let text: Vec<u8> = std::iter::repeat(b"aab".iter().copied())
            .take(500)
            .flatten()
            .collect();
        let kmp = Kmp::new(b"aabaabaaab");
        let c = EvalCounter::new();
        kmp.find_all(&text, &c);
        assert!(c.total() <= 2 * text.len() as u64, "{}", c.total());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// KMP agrees with the std-library substring search.
            #[test]
            fn agrees_with_std(
                pattern in "[ab]{1,6}",
                text in "[ab]{0,60}",
            ) {
                let expected: Vec<usize> = (0..=text.len().saturating_sub(pattern.len()))
                    .filter(|&i| text.len() >= pattern.len() && text[i..].starts_with(&pattern))
                    .collect();
                let got = find_all_str(&pattern, &text, &EvalCounter::new());
                prop_assert_eq!(got, expected);
            }

            /// Comparison count is linear in the text length.
            #[test]
            fn linear_cost(pattern in "[ab]{1,8}", text in "[ab]{0,200}") {
                let c = EvalCounter::new();
                find_all_str(&pattern, &text, &c);
                prop_assert!(c.total() <= 2 * text.len() as u64 + pattern.len() as u64);
            }
        }
    }
}
