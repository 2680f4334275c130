//! What a `/link` response must say, derived from an in-process
//! `TwoStageLinker` on the same generation. Scores are compared by bit
//! pattern: the server prints shortest-round-trip decimals, so a parsed
//! response carries exactly the `f64`s the linker produced.

use crate::client::TOP_K;
use crate::stats::Fnv;
use mb_core::linker::LinkResult;
use mb_serve::json::{self, Json};

/// The checked part of one answer: the predicted id and the top
/// candidates as `(id, bi_score bits, rerank score bits)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub predicted: Option<u32>,
    pub top: Vec<(u32, u64, u64)>,
}

impl Answer {
    /// The answer the server renders for `result`: candidates in
    /// descending rerank order (stable, total order), cut at `TOP_K`.
    pub fn of(result: &LinkResult) -> Answer {
        let mut ranked: Vec<(u32, f64, f64)> = result
            .retrieved
            .iter()
            .zip(&result.rerank_scores)
            .map(|(&(id, bi), &score)| (id.0, bi, score))
            .collect();
        ranked.sort_by(|a, b| b.2.total_cmp(&a.2));
        Answer {
            predicted: result.predicted.map(|id| id.0),
            top: ranked
                .into_iter()
                .take(TOP_K)
                .map(|(id, bi, score)| (id, bi.to_bits(), score.to_bits()))
                .collect(),
        }
    }

    /// Parse a 200 body; also returns the generation stamp.
    pub fn parse(body: &[u8]) -> Result<(Answer, u64), String> {
        let doc = json::parse(body)?;
        let id_of = |v: &Json| -> Result<u32, String> {
            let id = v.get("id").and_then(Json::as_usize).ok_or("entry without an id")?;
            u32::try_from(id).map_err(|_| format!("id {id} exceeds the id space"))
        };
        let predicted = match doc.get("predicted") {
            Some(Json::Null) => None,
            Some(p) => Some(id_of(p)?),
            None => return Err("response without \"predicted\"".to_string()),
        };
        let Some(Json::Arr(candidates)) = doc.get("candidates") else {
            return Err("response without a \"candidates\" array".to_string());
        };
        let bits = |c: &Json, key: &str| -> Result<u64, String> {
            c.get(key)
                .and_then(Json::as_f64)
                .map(f64::to_bits)
                .ok_or_else(|| format!("candidate without a numeric {key:?}"))
        };
        let top = candidates
            .iter()
            .map(|c| Ok((id_of(c)?, bits(c, "bi_score")?, bits(c, "score")?)))
            .collect::<Result<Vec<_>, String>>()?;
        let generation = doc
            .get("generation")
            .and_then(Json::as_usize)
            .ok_or("response without a generation stamp")?;
        Ok((Answer { predicted, top }, generation as u64))
    }

    /// Fold the answer into the run's output checksum.
    pub fn checksum_into(&self, h: &mut Fnv) {
        h.u64(self.predicted.map_or(u64::MAX, u64::from));
        for &(id, bi, score) in &self.top {
            h.u64(u64::from(id));
            h.u64(bi);
            h.u64(score);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_kb::EntityId;

    fn result() -> LinkResult {
        LinkResult {
            retrieved: vec![(EntityId(7), 0.731), (EntityId(3), 0.52), (EntityId(9), 0.5)],
            rerank_scores: vec![0.1, 1.0 / 3.0, -2.5e-7],
            predicted: Some(EntityId(3)),
        }
    }

    /// The body `mb-serve` renders for `result()`, with `score` as the
    /// top candidate's rerank score.
    fn body(score: f64) -> String {
        format!(
            "{{\"domain\":\"Test\",\"generation\":2,\"predicted\":{{\"id\":3,\"title\":\"t\"}},\
             \"candidates\":[{{\"id\":3,\"title\":\"t\",\"bi_score\":{},\"score\":{}}},\
             {{\"id\":7,\"title\":\"u\",\"bi_score\":{},\"score\":{}}},\
             {{\"id\":9,\"title\":\"v\",\"bi_score\":{},\"score\":{}}}]}}",
            json::num(0.52),
            json::num(score),
            json::num(0.731),
            json::num(0.1),
            json::num(0.5),
            json::num(-2.5e-7),
        )
    }

    #[test]
    fn a_faithful_response_matches_bit_for_bit() {
        let (got, generation) = Answer::parse(body(1.0 / 3.0).as_bytes()).expect("valid body");
        assert_eq!(generation, 2);
        assert_eq!(got, Answer::of(&result()));
    }

    #[test]
    fn a_one_bit_score_change_is_rejected() {
        let off = f64::from_bits((1.0f64 / 3.0).to_bits() ^ 1);
        let (got, _) = Answer::parse(body(off).as_bytes()).expect("valid body");
        assert_ne!(got, Answer::of(&result()));
        let sum = |a: &Answer| {
            let mut h = Fnv::new();
            a.checksum_into(&mut h);
            h.0
        };
        assert_ne!(sum(&got), sum(&Answer::of(&result())));
    }

    #[test]
    fn malformed_bodies_are_errors() {
        assert!(Answer::parse(b"{\"predicted\":null}").is_err());
        assert!(Answer::parse(b"not json").is_err());
    }
}
