//! Property-based tests of knowledge-base index consistency.

use mb_check::gen::{self, StringGen, VecGen};
use mb_check::{prop_assert, prop_assert_eq};
use mb_kb::{EntityId, KbBuilder};

/// 1–3 lowercase words; joined with spaces in the property bodies
/// (generating the word vector directly keeps shrinking useful).
fn title_words() -> VecGen<StringGen<gen::CharIn>> {
    gen::vec_of(gen::lowercase_string(2..=7), 1..4)
}

mb_check::check! {
    #![config(cases = 32)]

    fn title_index_finds_every_inserted_title(title_ws in gen::vec_of(title_words(), 1..30)) {
        let titles: Vec<String> = title_ws.iter().map(|ws| ws.join(" ")).collect();
        let mut b = KbBuilder::new();
        let d = b.domain("D").unwrap();
        let ids: Vec<EntityId> = titles
            .iter()
            .map(|t| b.add_entity(t, "desc words here", d).unwrap())
            .collect();
        let kb = b.build().unwrap();
        for (t, id) in titles.iter().zip(&ids) {
            prop_assert!(kb.by_title(t).contains(id), "title {t:?} lost");
            // Case-insensitive.
            prop_assert!(kb.by_title(&t.to_uppercase()).contains(id));
        }
        prop_assert_eq!(kb.len(), titles.len());
    }
}
