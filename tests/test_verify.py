"""Edge corpora for the verify checks, fed in through a monkeypatched
corpus generator."""

from ngmlimit import verify
from ngmlimit.cli import render_json
from ngmlimit.densela import Matrix
from ngmlimit.minorlimit import DiagonalRay, exact_minor_inverse

# A(t) = [[t, 0], [1, 3]]: the (1, 1) minor of A(t)^-1 is exactly 1/3 at
# every t, so every error along the ray is exactly 0
EXACT_RAY = (Matrix([[2.0, 0.0], [1.0, 3.0]]), 1)
WORKED_RAY = (Matrix([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]), 2)


def corpus_of(*rays):
    def limit_corpus(rng, count=200):
        return [(m, i, exact_minor_inverse(DiagonalRay(m, i)))
                for m, i in rays]
    return limit_corpus


def test_exact_ray_alone_passes_with_null_statistics(monkeypatch):
    monkeypatch.setattr(verify, "limit_corpus", corpus_of(EXACT_RAY))
    result = verify.check_minor_inverse_limit()
    assert result.passed
    assert result.cases == 1
    assert result.worst_error == 0.0
    assert result.details["decade_ratio_low"] is None
    assert result.details["decade_ratio_high"] is None
    assert result.details["worst_extrapolation_gain"] is None
    rendered = render_json(result.details)
    assert '"worst_extrapolation_gain": null' in rendered


def test_exact_ray_does_not_move_the_other_cases_statistics(monkeypatch):
    monkeypatch.setattr(verify, "limit_corpus", corpus_of(WORKED_RAY))
    alone = verify.check_minor_inverse_limit()
    monkeypatch.setattr(verify, "limit_corpus",
                        corpus_of(EXACT_RAY, WORKED_RAY))
    mixed = verify.check_minor_inverse_limit()
    assert mixed.passed and alone.passed
    assert mixed.cases == 2
    assert mixed.details == alone.details
    assert isinstance(mixed.details["worst_extrapolation_gain"], float)


def test_no_case_at_all_still_renders(monkeypatch):
    monkeypatch.setattr(verify, "limit_corpus", corpus_of())
    result = verify.check_minor_inverse_limit()
    assert result.passed and result.cases == 0
    render_json(result.details)
