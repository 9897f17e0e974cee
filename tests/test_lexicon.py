import math
import random
import re

import pytest

from colourgame.errors import InternalConsistencyError
from colourgame.lexicon import (
    CONSONANTS,
    HEARER,
    SPEAKER,
    VOWELS,
    ConstructionInventory,
    invent_word_form,
)

from helpers import oracle_comprehend, oracle_produce

WORD_SHAPE = re.compile(f"^([{CONSONANTS}][{VOWELS}]){{3}}$")


def test_attested_forms_match_the_word_shape():
    for form in ("fusemo", "sobele", "ponuro"):
        assert WORD_SHAPE.match(form)


def test_generated_forms_match_shape_and_avoid_taken():
    rng = random.Random(42)
    forms = {invent_word_form(rng) for _ in range(10_000)}
    assert all(WORD_SHAPE.match(form) for form in forms)
    taken = set(forms)
    fresh = invent_word_form(rng, taken)
    assert fresh not in taken and WORD_SHAPE.match(fresh)


def test_add_construction_stores_default_score():
    inventory = ConstructionInventory()
    construction = inventory.add_construction("fusemo", 1, 0.5)
    assert construction.score == 0.5
    assert len(inventory) == 1


def test_add_construction_rejects_duplicates_and_bad_scores():
    inventory = ConstructionInventory()
    inventory.add_construction("fusemo", 1, 0.5)
    with pytest.raises(InternalConsistencyError):
        inventory.add_construction("fusemo", 1, 0.7)
    with pytest.raises(ValueError):
        inventory.add_construction("ponuro", 2, 0.0)
    with pytest.raises(ValueError):
        inventory.add_construction("ponuro", 2, 1.2)
    inventory.add_construction("ponuro", 2, 1.0)  # upper bound inclusive


def test_produce_picks_strongest_form():
    inventory = ConstructionInventory()
    inventory.add_construction("fusemo", 1, 0.7)
    inventory.add_construction("ponuro", 1, 0.4)
    produced = inventory.produce(1)
    assert produced is not None and produced.form == "fusemo"


def test_produce_absent_category_and_lexicographic_tie():
    inventory = ConstructionInventory()
    assert inventory.produce(1) is None
    inventory.add_construction("bbb", 1, 0.5)
    inventory.add_construction("aaa", 1, 0.5)
    produced = inventory.produce(1)
    assert produced is not None and produced.form == "aaa"


def test_comprehend_picks_strongest_category():
    inventory = ConstructionInventory()
    inventory.add_construction("fusemo", 2, 0.6)
    inventory.add_construction("fusemo", 5, 0.3)
    heard = inventory.comprehend("fusemo")
    assert heard is not None and heard.category_id == 2


def test_comprehend_unknown_form_and_tie():
    inventory = ConstructionInventory()
    assert inventory.comprehend("fusemo") is None
    inventory.add_construction("sobele", 9, 0.5)
    inventory.add_construction("sobele", 3, 0.5)
    heard = inventory.comprehend("sobele")
    assert heard is not None and heard.category_id == 3
    only = inventory.comprehend("sobele")
    assert only is not None


def test_reward_and_inhibit_arithmetic_and_clamp():
    inventory = ConstructionInventory()
    used = inventory.add_construction("fusemo", 1, 0.5)
    inventory.reward_and_inhibit(used, SPEAKER, inc=0.1, inh=0.1)
    assert used.score == pytest.approx(0.6)
    used.score = 0.95
    inventory.reward_and_inhibit(used, SPEAKER, inc=0.1, inh=0.1)
    assert used.score == 1.0


def test_reward_and_inhibit_speaker_competitors():
    inventory = ConstructionInventory()
    used = inventory.add_construction("fusemo", 1, 0.5)
    synonym = inventory.add_construction("ponuro", 1, 0.4)
    homonym = inventory.add_construction("fusemo", 2, 0.4)
    unrelated = inventory.add_construction("sobele", 3, 0.4)
    inventory.reward_and_inhibit(used, SPEAKER, inc=0.1, inh=0.1)
    assert synonym.score == pytest.approx(0.3)  # same meaning, other form
    assert homonym.score == pytest.approx(0.4)  # untouched for a speaker
    assert unrelated.score == pytest.approx(0.4)


def test_reward_and_inhibit_hearer_competitors():
    inventory = ConstructionInventory()
    used = inventory.add_construction("fusemo", 1, 0.5)
    synonym = inventory.add_construction("ponuro", 1, 0.4)
    homonym = inventory.add_construction("fusemo", 2, 0.4)
    inventory.reward_and_inhibit(used, HEARER, inc=0.1, inh=0.1)
    assert homonym.score == pytest.approx(0.3)  # same form, other meaning
    assert synonym.score == pytest.approx(0.4)  # untouched for a hearer


def test_inhibition_removes_constructions_at_zero():
    inventory = ConstructionInventory()
    used = inventory.add_construction("fusemo", 1, 0.5)
    inventory.add_construction("ponuro", 1, 0.05)
    inventory.reward_and_inhibit(used, SPEAKER, inc=0.1, inh=0.1)
    assert inventory.produce(1) is used
    assert len(inventory) == 1


def test_inhibition_to_exactly_zero_prunes_and_keeps_survivor_order():
    inventory = ConstructionInventory()
    first = inventory.add_construction("sobele", 2, 0.3)
    doomed = inventory.add_construction("ponuro", 1, 0.1)
    used = inventory.add_construction("fusemo", 1, 0.5)
    survivor = inventory.add_construction("kadilu", 1, 0.4)
    last = inventory.add_construction("fusemo", 2, 0.2)
    inventory.reward_and_inhibit(used, SPEAKER, inc=0.1, inh=0.1)
    assert doomed.score == 0.0
    assert list(map(id, inventory.constructions)) == list(
        map(id, [first, used, survivor, last])
    )
    assert survivor.score == pytest.approx(0.3)


def test_reward_requires_membership_and_valid_role():
    inventory = ConstructionInventory()
    used = inventory.add_construction("fusemo", 1, 0.5)
    other = ConstructionInventory().add_construction("fusemo", 1, 0.5)
    with pytest.raises(InternalConsistencyError):
        inventory.reward_and_inhibit(other, SPEAKER, 0.1, 0.1)
    # A foreign construction that `used` competes with moves no score.
    for role, foreign in ((SPEAKER, ("zalemo", 1)), (HEARER, ("fusemo", 2))):
        outsider = ConstructionInventory().add_construction(*foreign, 0.5)
        with pytest.raises(InternalConsistencyError):
            inventory.reward_and_inhibit(outsider, role, 0.1, 0.5)
        assert inventory.constructions == [used] and used.score == 0.5
        assert outsider.score == 0.5
    with pytest.raises(ValueError):
        inventory.reward_and_inhibit(used, "bystander", 0.1, 0.1)


def test_punish_arithmetic_and_removal():
    inventory = ConstructionInventory()
    used = inventory.add_construction("fusemo", 1, 0.5)
    inventory.punish(used, 0.1)
    assert used.score == pytest.approx(0.4)
    inventory.punish(used, 0.0)
    assert used.score == pytest.approx(0.4)
    weak = inventory.add_construction("ponuro", 2, 0.1)
    inventory.punish(weak, 0.1)
    assert inventory.comprehend("ponuro") is None


@pytest.mark.parametrize("score,dec", [(0.5, 0.1), (0.5, 0.2), (1.0, 0.3)])
def test_punish_removes_in_ceil_score_over_dec_steps(score, dec):
    inventory = ConstructionInventory()
    used = inventory.add_construction("fusemo", 1, score)
    steps = 0
    while inventory.comprehend("fusemo") is not None:
        inventory.punish(used, dec)
        steps += 1
    assert steps == math.ceil(score / dec)


def test_scores_stay_in_unit_interval_under_random_updates():
    rng = random.Random(97)
    for _ in range(500):
        inventory = ConstructionInventory()
        for i in range(rng.randint(1, 6)):
            inventory.add_construction(
                invent_word_form(rng, inventory.forms()),
                rng.randint(1, 3),
                round(rng.uniform(0.05, 1.0), 2),
            )
        for _ in range(rng.randint(1, 15)):
            if not inventory.constructions:
                break
            used = rng.choice(inventory.constructions)
            if rng.random() < 0.5:
                inventory.reward_and_inhibit(
                    used,
                    rng.choice((SPEAKER, HEARER)),
                    rng.uniform(0, 0.25),
                    rng.uniform(0, 0.25),
                )
            else:
                inventory.punish(used, rng.uniform(0, 0.25))
            assert all(0.0 < c.score <= 1.0 for c in inventory.constructions)


def test_produce_returns_the_freshly_added_strongest_form():
    rng = random.Random(11)
    for _ in range(200):
        inventory = ConstructionInventory()
        for _ in range(rng.randint(0, 5)):
            inventory.add_construction(
                invent_word_form(rng, inventory.forms()),
                rng.randint(1, 3),
                round(rng.uniform(0.05, 0.8), 2),
            )
        top_form = invent_word_form(rng, inventory.forms())
        inventory.add_construction(top_form, 2, 0.9)
        produced = inventory.produce(2)
        assert produced is not None and produced.form == top_form


def test_one_pass_lookups_pick_what_the_two_pass_oracles_pick():
    # Few forms, few categories and few distinct scores make ties common.
    # 0.1 + 0.2 and 0.7 - 0.2 are not 0.3 and 0.5 as floats, but the
    # inventory rounds them to exactly those, so they tie as well; rewards,
    # inhibitions and punishments then move scores onto shared values too.
    rng = random.Random(2024)
    forms = ["bakala", "defile", "gikolu", "lamune"]
    scores = [0.3, 0.1 + 0.2, 0.5, 0.7 - 0.2, 1.0, 0.25, 0.05 * 5]
    ties = 0
    for _ in range(600):
        inventory = ConstructionInventory()
        pairs = [(f, c) for f in forms for c in range(1, 5)]
        for form, category_id in rng.sample(pairs, rng.randint(0, len(pairs))):
            inventory.add_construction(form, category_id, rng.choice(scores))
        for _ in range(rng.randint(0, 6)):
            if not inventory.constructions:
                break
            used = rng.choice(inventory.constructions)
            if rng.random() < 0.5:
                inventory.reward_and_inhibit(
                    used, rng.choice((SPEAKER, HEARER)), 0.1, 0.2
                )
            else:
                inventory.punish(used, 0.2)
        constructions = inventory.constructions
        for category_id in range(0, 6):
            assert inventory.produce(category_id) is oracle_produce(
                constructions, category_id
            )
        for form in forms + ["zuzuzu"]:
            assert inventory.comprehend(form) is oracle_comprehend(
                constructions, form
            )
            matching = [c.score for c in constructions if c.form == form]
            ties += len(matching) != len(set(matching))
    assert ties > 100
