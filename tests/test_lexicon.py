import math
import random
import re

import pytest

from colourgame import lexicon
from colourgame.engine import ExperimentParams, run_experiment
from colourgame.errors import InternalConsistencyError
from colourgame.lexicon import (
    CONSONANTS,
    HEARER,
    SPEAKER,
    VOWELS,
    ConstructionInventory,
    invent_word_form,
)

from helpers import constructions_of, fields_of, oracle_comprehend, oracle_produce

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


def test_add_construction_stores_an_int_score_as_a_float():
    inventory = ConstructionInventory()
    construction = inventory.add_construction("fusemo", 1, 1)
    assert type(construction.score) is float and construction.score == 1.0


def test_add_construction_rejects_duplicates_and_bad_scores():
    inventory = ConstructionInventory()
    inventory.add_construction("fusemo", 1, 0.5)
    with pytest.raises(InternalConsistencyError):
        inventory.add_construction("fusemo", 1, 0.7)
    with pytest.raises(ValueError):
        inventory.add_construction("ponuro", 2, 0.0)
    with pytest.raises(ValueError):
        inventory.add_construction("ponuro", 2, 1.2)
    # Positive, but rounded to 12 decimals it would be stored as 0.0.
    with pytest.raises(ValueError):
        inventory.add_construction("ponuro", 2, 1e-13)
    assert len(inventory) == 1 and inventory.edits == 1
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
    assert {k: list(map(id, v)) for k, v in inventory.by_form.items()} == {
        "sobele": [id(first)],
        "fusemo": [id(used), id(last)],
        "kadilu": [id(survivor)],
    }
    assert {k: list(map(id, v)) for k, v in inventory.by_category.items()} == {
        2: [id(first), id(last)],
        1: [id(used), id(survivor)],
    }
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
        assert constructions_of(inventory) == [used] and used.score == 0.5
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


def test_punish_rejects_a_field_equal_foreign_construction():
    inventory = ConstructionInventory()
    used = inventory.add_construction("fusemo", 1, 0.5)
    foreign = ConstructionInventory().add_construction("fusemo", 1, 0.5)
    assert fields_of(foreign) == fields_of(used) and foreign is not used
    with pytest.raises(InternalConsistencyError):
        inventory.punish(foreign, 0.1)
    assert constructions_of(inventory) == [used]
    assert used.score == 0.5 and foreign.score == 0.5


@pytest.mark.parametrize(
    "bad", [-0.1, math.nan, math.inf], ids=["negative", "nan", "inf"]
)
def test_updates_refuse_a_negative_or_non_finite_step(bad):
    # A NaN step would leave a score at NaN, which is never pruned, and a
    # NaN or infinite increment would set it to 1.0.
    inventory = ConstructionInventory()
    used = inventory.add_construction("fusemo", 1, 0.5)
    inventory.add_construction("fusemo", 2, 0.5)  # the hearer's competitor
    inventory.add_construction("sobele", 1, 0.5)  # the speaker's competitor
    held = constructions_of(inventory)
    before = list(map(fields_of, held))
    edits = inventory.edits
    updates = (
        lambda: inventory.reward_and_inhibit(used, SPEAKER, bad, 0.05),
        lambda: inventory.reward_and_inhibit(used, SPEAKER, 0.15, bad),
        lambda: inventory.reward_and_inhibit(used, HEARER, 0.15, bad),
        lambda: inventory.punish(used, bad),
    )
    for update in updates:
        with pytest.raises(ValueError, match=r"must be finite and >= 0, got "):
            update()
        assert constructions_of(inventory) == held
        assert list(map(fields_of, held)) == before
        assert inventory.edits == edits


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
                invent_word_form(rng, set(inventory.by_form)),
                rng.randint(1, 3),
                round(rng.uniform(0.05, 1.0), 2),
            )
        for _ in range(rng.randint(1, 15)):
            if not inventory.by_form:
                break
            used = rng.choice(constructions_of(inventory))
            if rng.random() < 0.5:
                inventory.reward_and_inhibit(
                    used,
                    rng.choice((SPEAKER, HEARER)),
                    rng.uniform(0, 0.25),
                    rng.uniform(0, 0.25),
                )
            else:
                inventory.punish(used, rng.uniform(0, 0.25))
            assert all(
                0.0 < c.score <= 1.0 for c in constructions_of(inventory)
            )


def test_produce_returns_the_freshly_added_strongest_form():
    rng = random.Random(11)
    for _ in range(200):
        inventory = ConstructionInventory()
        for _ in range(rng.randint(0, 5)):
            inventory.add_construction(
                invent_word_form(rng, set(inventory.by_form)),
                rng.randint(1, 3),
                round(rng.uniform(0.05, 0.8), 2),
            )
        top_form = invent_word_form(rng, set(inventory.by_form))
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
            if not inventory.by_form:
                break
            used = rng.choice(constructions_of(inventory))
            if rng.random() < 0.5:
                inventory.reward_and_inhibit(
                    used, rng.choice((SPEAKER, HEARER)), 0.1, 0.2
                )
            else:
                inventory.punish(used, 0.2)
        constructions = constructions_of(inventory)
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


def grouped(constructions, key) -> dict:
    """`constructions` grouped by `key`, each group in list order."""
    groups: dict = {}
    for c in constructions:
        groups.setdefault(key(c), []).append(c)
    return groups


def assert_index_matches(inventory: ConstructionInventory, model: list) -> None:
    """Both indexes hold exactly the grouping of `model`, the constructions
    the inventory should hold in the order they were added: the same objects
    in the same order, and no bucket is empty. So both hold the same
    objects, and the inventory's length is each index's total."""
    held = []
    for buckets, key in (
        (inventory.by_form, lambda c: c.form),
        (inventory.by_category, lambda c: c.category_id),
    ):
        expected = grouped(model, key)
        assert {k: list(map(id, v)) for k, v in buckets.items()} == {
            k: list(map(id, v)) for k, v in expected.items()
        }
        assert all(buckets.values())
        assert len(inventory) == sum(map(len, buckets.values()))
        held.append(sorted(id(c) for bucket in buckets.values() for c in bucket))
    assert held[0] == held[1]
    assert set(inventory.by_form) == {c.form for c in model}


def test_index_follows_every_add_reward_punish_and_prune():
    rng = random.Random(1717)
    forms = ["bakala", "defile", "gikolu", "lamune", "pesoro"]
    scores = [0.05, 0.1, 0.25, 0.3, 0.5, 0.7 - 0.2, 1.0]
    prunes = foreign = 0
    for _ in range(300):
        inventory = ConstructionInventory()
        # What the inventory should hold, in the order it was added.
        model: list = []
        for _ in range(rng.randint(1, 40)):
            op = rng.random()
            before = inventory.edits
            added = 0
            if op < 0.4 or not model:
                form, category_id = rng.choice(forms), rng.randint(1, 4)
                held = any(
                    c.form == form and c.category_id == category_id
                    for c in model
                )
                if held:
                    with pytest.raises(InternalConsistencyError):
                        inventory.add_construction(form, category_id, 0.5)
                else:
                    model.append(
                        inventory.add_construction(
                            form, category_id, rng.choice(scores)
                        )
                    )
                    added = 1
            elif op < 0.85:
                used = rng.choice(model)
                if rng.random() < 0.5:
                    inventory.reward_and_inhibit(
                        used, rng.choice((SPEAKER, HEARER)), 0.1, rng.choice((0.1, 0.3))
                    )
                else:
                    inventory.punish(used, rng.choice((0.1, 0.2, 0.5)))
            else:
                # A stranger equal in form, category and score to a held
                # construction is still not that construction.
                twin = rng.choice(model)
                outsider = ConstructionInventory().add_construction(
                    twin.form, twin.category_id, twin.score
                )
                assert fields_of(outsider) == fields_of(twin)
                assert outsider is not twin
                held_scores = [c.score for c in model]
                with pytest.raises(InternalConsistencyError):
                    if rng.random() < 0.5:
                        inventory.reward_and_inhibit(
                            outsider, rng.choice((SPEAKER, HEARER)), 0.1, 0.5
                        )
                    else:
                        inventory.punish(outsider, 1.0)
                assert [c.score for c in model] == held_scores
                assert outsider.score == twin.score
                foreign += 1
            kept = [c for c in model if c.score > 0.0]
            removed = len(model) - len(kept)
            model = kept
            # Every add and every removal raises the edit count by one.
            assert inventory.edits - before == added + removed
            prunes += removed > 0
            assert_index_matches(inventory, model)
            for category_id in range(0, 6):
                assert inventory.produce(category_id) is oracle_produce(
                    model, category_id
                )
            for form in forms + ["zuzuzu"]:
                assert inventory.comprehend(form) is oracle_comprehend(
                    model, form
                )
    assert prunes > 300 and foreign > 300


def _rounded_inputs_of_random_updates(seed: int, wanted: int) -> list[float]:
    """Every score handed to `_rounded` by random add, reward/inhibit and
    punish sequences under random increments."""
    seen: list[float] = []
    real = lexicon._rounded

    def recording(score):
        seen.append(score)
        return real(score)

    rng = random.Random(seed)
    lexicon._rounded = recording
    try:
        while len(seen) < wanted:
            inc, inh, dec = (
                round(rng.uniform(0, 0.3), rng.randint(1, 9)) for _ in range(3)
            )
            inventory = ConstructionInventory()
            for _ in range(rng.randint(1, 6)):
                inventory.add_construction(
                    invent_word_form(rng, set(inventory.by_form)),
                    rng.randint(1, 3),
                    round(rng.uniform(0.06, 1.0), rng.randint(1, 9)),
                )
            for _ in range(rng.randint(1, 30)):
                if not inventory.by_form:
                    break
                used = rng.choice(constructions_of(inventory))
                if rng.random() < 0.6:
                    inventory.reward_and_inhibit(
                        used, rng.choice((SPEAKER, HEARER)), inc, inh
                    )
                else:
                    inventory.punish(used, dec)
    finally:
        lexicon._rounded = real
    return seen


def test_memoised_rounding_equals_round_bit_for_bit():
    # 12-decimal ties k.5e-12 and the floats either side of them, where an
    # inexact memo would round the other way.
    ties = [(k + 0.5) / 10**12 for k in range(0, 10**12, 7_777_777_777)]
    near_ties = [
        math.nextafter(x, direction) for x in ties for direction in (0.0, 1.0)
    ]
    signed_zeros_and_negatives = [0.0, -0.0, -1e-13, -4e-13, -5e-324, -0.05]
    scores = _rounded_inputs_of_random_updates(seed=13, wanted=10_000)
    assert len(scores) >= 10_000
    inputs = signed_zeros_and_negatives + ties + near_ties + scores
    lexicon._ROUNDED.clear()
    # Twice over: the first pass fills the memo, the second reads it.
    for _ in range(2):
        for x in inputs:
            assert lexicon._rounded(x).hex() == round(x, 12).hex(), x
    # A memoised 1.0 must not turn the int 1, which round keeps, into a float.
    assert lexicon._rounded(1.0) == 1.0
    assert type(lexicon._rounded(1)) is int


def test_rounding_memo_stays_within_its_bound():
    lexicon._ROUNDED.clear()
    bound = lexicon._ROUNDED_MAX
    rng = random.Random(5)
    for _ in range(3 * bound + 1):
        x = rng.random() + 1e-9
        assert lexicon._rounded(x) == round(x, 12)
        assert len(lexicon._ROUNDED) <= bound
    assert lexicon._ROUNDED


def test_rounding_memo_is_run_scoped():
    # What a run leaves in the memo, entries and their order, does not depend
    # on a run played before it in the same process.
    params = ExperimentParams(num_interactions=300)
    lexicon._ROUNDED.clear()
    run_experiment(params, 1)
    alone = list(lexicon._ROUNDED.items())
    run_experiment(params, 0)
    run_experiment(params, 1)
    assert list(lexicon._ROUNDED.items()) == alone
