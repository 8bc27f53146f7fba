"""Pinned emitted output.

A sha256 over every Bestvina-Brady scheme of K3 and the octahedron at index
bound 2 (814 sequences) and over the flattenings of the pulldown-pipeline
criterion's 200 filling expressions, in that order.  A change to how moves
are applied, spliced, mirrored, reversed or turned into expressions must
leave every emitted move and every term as it was."""

import hashlib
import random

from fillcalc import bestvina_brady as bb
from fillcalc.pulldown import flatten_expression, standard_context
from fillcalc.rewriting import FillingExpression, replay_sequence, validate_expression
from fillcalc.words import EMPTY, Letter, Word, free_reduce

EMITTED_SHA256 = "2fb968b663fafe5b3a6dcc11be8833ae2064cae2fd6f409fc13e59ff5810e4e9"


def bb_schemes():
    for delta in (bb.triangle_complex(), bb.octahedron_complex()):
        tree = bb.spanning_tree(delta)
        model = bb.BBModel(delta, tree)
        for member in bb.bb_indexed_families(delta, tree, 2):
            kind, args, n = bb.member_scheme(model, member)
            seq = bb.bb_relator_scheme(delta, tree, kind, args, n, model)
            acct = replay_sequence(model.pres, seq)
            assert acct.endpoints == (member.word, EMPTY)
            yield seq


def flattened_expressions():
    """The criterion's draw: seed 13, alternating the (3,2,1) and (4,2,2)
    contexts, up to three terms conjugated by up to four letters."""
    contexts = [standard_context(3, 2, 1), standard_context(4, 2, 2)]
    rng = random.Random(13)
    for trial in range(200):
        ctx = contexts[trial % 2]
        gens = ctx.spec.all_generators()
        terms = []
        for _ in range(rng.randrange(4)):
            conj = Word(tuple(Letter(rng.choice(gens), rng.choice((1, -1)))
                              for _ in range(rng.randrange(5))))
            terms.append((conj, rng.randrange(len(ctx.presentation.relators)),
                          rng.choice((1, -1))))
        expr = FillingExpression(tuple(terms))
        w = free_reduce(expr.boundary(ctx.presentation))
        out = flatten_expression(ctx, expr, w)
        validate_expression(ctx.presentation, out, w, ctx.theta)
        yield out


def test_emitted_sequences_and_expressions_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for seq in bb_schemes():
        digest.update(repr((str(seq.start), seq.moves)).encode())
        count += 1
    assert count == 814
    for out in flattened_expressions():
        digest.update(repr(out.terms).encode())
    assert digest.hexdigest() == EMITTED_SHA256
