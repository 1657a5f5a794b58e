"""Frozen outputs of the array passes behind ``predict`` and ``validate``.

The expected texts were computed with the per-fixture and per-game
implementation these passes replaced (commit 3121824); the array passes
must reproduce them byte for byte.  The chunked passes must also give the
same bytes whatever the chunk size.
"""

import pytest

from drawrating import cli, engine, model, oracle, store
from drawrating.engine import EngineConfig, PlayerBelief

ENTRIES = [
    ("anna", 2.1, 0.45, 12), ("bert", 1.3, 0.8, 3),
    ("cleo", 3.7, 0.3, 40), ("dana", -0.4, 1.1, 0),
]
# unknown players (zed, yuri) and malformed rows (lines 5, 6 and 8)
FIXTURES = (
    "white,black\nanna,bert\ncleo,anna\nzed,dana\nbert\ndana,cleo,extra\n"
    "bert,yuri\n,anna\ncleo,dana\n"
)

PREDICT = {
    1: (
        'white,black,p_win,p_draw,p_loss,p_win_decisive\n'
        'anna,bert,0.24178953212221124,0.6495674278749277,0.10864304000286087,0.6899744811276124\n'
        'cleo,anna,0.29315088763622393,0.64766296890298,0.059186143460796085,0.8320183851339245\n'
        'zed,dana,0.4388046394648773,0.5088891306795834,0.05230622985553911,0.8934940496676059\n'
        'bert,yuri,0.1362608196637055,0.6549114489145991,0.20882773142169533,0.39485754956264646\n'
        'cleo,dana,0.6543910536825588,0.33476393579894376,0.010845010518497565,0.9836975006285591\n'
    ),
    3: (
        'white,black,p_win,p_draw,p_loss,p_win_decisive\n'
        'anna,bert,0.2536644366801167,0.628676616296727,0.11765894702315646,0.6831361767478171\n'
        'cleo,anna,0.2966753579546159,0.6417491129870488,0.061575529058335375,0.8281217680387507\n'
        'zed,dana,0.4428232060703703,0.47050774892001385,0.0866690450096159,0.8363166886147244\n'
        'bert,yuri,0.1736345617544847,0.5917622724037498,0.2346031658417657,0.4253270827683284\n'
        'cleo,dana,0.6405431172738841,0.3445484793375452,0.014908403388570936,0.9772547581039964\n'
    ),
    9: (
        'white,black,p_win,p_draw,p_loss,p_win_decisive\n'
        'anna,bert,0.25369004142985174,0.6286513374568589,0.1176586211132893,0.6831586242763957\n'
        'cleo,anna,0.2966764479838404,0.641748054856887,0.061575497159272824,0.8281223647378249\n'
        'zed,dana,0.44282691682396114,0.4706733891978348,0.08649969397820402,0.8365854045253487\n'
        'bert,yuri,0.17380669700289275,0.5915627548968377,0.23463054810026993,0.4255407632058453\n'
        'cleo,dana,0.6403783318822516,0.3447176688549392,0.014903999262809177,0.9772556063937121\n'
    ),
}
PREDICT_STDERR = "warning: unknown player 'zed', using default prior\nwarning: fixtures line 5: expected 'white,black'\nwarning: fixtures line 6: expected 'white,black'\nwarning: unknown player 'yuri', using default prior\nwarning: fixtures line 8: expected 'white,black'\n"
VALIDATE = [
    (('2', '--stratify'), (
        'subset,n,mean_abs_approx,mean_abs_oracle,r2_mean,mean_abs_diff,r2_log_sd\n'
        'all,40,0.25782293988078936,0.24490150393677293,0.9738507989245042,0.04018065310029854,-53.133666468484854\n'
        'decisive,20,0.3945253604629089,0.36537424262385154,0.9744842414303468,0.05596893593708432,-100.64558349753308\n'
        'drawn,20,0.12112051929866971,0.12442876524969429,0.9691902721261634,0.024392370263512764,-2.4664896683508872\n'
        'mu<=1.00,14,0.30997424325375483,0.3026652492376741,0.9664000099134509,0.04804812475665876,-39.30711680723871\n'
        '1.00<mu<=4.21,13,0.20188705344669672,0.20705752511171033,0.9817264504882198,0.028371100606675827,-5.32782889839793\n'
        'mu>4.21,13,0.25759588422091906,0.22053837243778818,0.9563148650951846,0.043517543810148704,-239.36435484319205\n'
    )),
    (('9',), (
        'subset,n,mean_abs_approx,mean_abs_oracle,r2_mean,mean_abs_diff,r2_log_sd\n'
        'all,40,0.25782293988078936,0.2574164252201089,0.9923430320218872,0.027471102611966634,0.8963012026676114\n'
    )),
    (('9', '--stratify', '--alpha0', '0.3', '--alpha1', '0.15'), (
        'subset,n,mean_abs_approx,mean_abs_oracle,r2_mean,mean_abs_diff,r2_log_sd\n'
        'all,40,0.27168949353901123,0.27436536724981375,0.9932415209850606,0.027407048635783776,0.9108568318155127\n'
        'decisive,21,0.4217763665306843,0.4267454163056052,0.9952669307008893,0.03255064482515192,0.8966341264627947\n'
        'drawn,19,0.10580400233768845,0.10594531303025467,0.9710134163480455,0.0217220212685874,0.9141355454513864\n'
        'mu<=1.00,14,0.3125056146057686,0.3148586858575877,0.9903314194755406,0.03120465813847484,0.8971902230603848\n'
        '1.00<mu<=4.21,13,0.24506826745266405,0.25172165775099536,0.990959247402241,0.028420004648783675,0.9272396919642715\n'
        'mu>4.21,13,0.2543548969380812,0.2534008874787217,0.9929517551138328,0.022304359312193503,0.8665224435742089\n'
    )),
    (('20', '--stratify', '--no-draw-override'), (
        'subset,n,mean_abs_approx,mean_abs_oracle,r2_mean,mean_abs_diff,r2_log_sd\n'
        'all,40,0.25838594625059585,0.2574164216887057,0.9995694777711184,0.005167533254790263,0.982779032365347\n'
        'decisive,20,0.3951844593879509,0.39443250662906515,0.9995746035764087,0.007666595375083338,0.9709916793989839\n'
        'drawn,20,0.12158743311324086,0.12040033674834631,0.9995170617408744,0.0026684711344971885,0.9946589366958418\n'
        'mu<=1.00,14,0.31273231318964034,0.3116723492193799,0.9992641895623205,0.007087153314218916,0.9803879980023211\n'
        '1.00<mu<=4.21,13,0.2012128431723703,0.2028976270660739,0.9993700367452564,0.004256490020368995,0.9842658522326795\n'
        'mu>4.21,13,0.25703219262523513,0.2535057558936885,0.9996212648419979,0.004011293348288365,0.9489869483401508\n'
    )),
    (('20', '--alpha0', '-0.2', '--alpha1', '0.1', '--no-draw-override'), (
        'subset,n,mean_abs_approx,mean_abs_oracle,r2_mean,mean_abs_diff,r2_log_sd\n'
        'all,40,0.25767792345874996,0.2567939560485823,0.9995590911723409,0.005204652497081873,0.9833985411192033\n'
    )),
    (('2', '--no-draw-override'), (
        'subset,n,mean_abs_approx,mean_abs_oracle,r2_mean,mean_abs_diff,r2_log_sd\n'
        'all,40,0.25838594625059585,0.24490150393677293,0.9767187887271125,0.023889250948719187,-46.089238332167895\n'
    )),
]


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def predict_inputs(tmp_path):
    snapshot = tmp_path / "s.snapshot"
    store.write_snapshot_file(
        store.RatingSnapshot(5, ENTRIES, model.DEFAULT_HYPERPARAMETERS, EngineConfig()),
        str(snapshot),
    )
    fixtures = tmp_path / "f.csv"
    fixtures.write_text(FIXTURES)
    return snapshot, fixtures


@pytest.mark.parametrize("order", sorted(PREDICT))
def test_predict_output_is_frozen(predict_inputs, capsys, order):
    snapshot, fixtures = predict_inputs
    assert run(["predict", "--snapshot", snapshot, "--fixtures", fixtures,
                "--order", order]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out == "".join(PREDICT[order])
    assert err == PREDICT_STDERR


@pytest.mark.parametrize("flags,expected", VALIDATE, ids=lambda v: " ".join(v)[:40])
def test_validate_report_is_frozen(capsys, flags, expected):
    assert run(["validate", "--games", 40, "--seed", 12, "--order", *flags]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out == "".join(expected)
    assert err == ""


def _one_game_chunks(order):
    return 1


def _two_game_chunks(order):
    """Two games of the five-row grid block at ``order``."""
    return 2 * 5 * order * order


@pytest.mark.parametrize("chunk", [_one_game_chunks, _two_game_chunks])
@pytest.mark.parametrize("order", [1, 9])
def test_predict_is_independent_of_the_chunk_size(predict_inputs, capsys, chunk_bound,
                                                  chunk, order):
    """Five fixtures in chunks of one, or of two with a last chunk of one."""
    snapshot, fixtures = predict_inputs
    argv = ["predict", "--snapshot", snapshot, "--fixtures", fixtures, "--order", order]
    assert run(argv) == cli.EXIT_OK
    whole = capsys.readouterr()
    counts = chunk_bound(chunk(order))
    assert run(argv) == cli.EXIT_OK
    assert capsys.readouterr() == whole
    assert counts == [3 if chunk is _two_game_chunks else 5]


@pytest.mark.parametrize("chunk", [_one_game_chunks, _two_game_chunks])
def test_validate_is_independent_of_the_chunk_size(capsys, chunk_bound, chunk):
    """37 games in chunks of one in each pass; or the outcome draws (order 3)
    in chunks of 18 and the oracle grid (order 9) in chunks of two games,
    each with a last chunk of one, while the game terms (two cells a game)
    stay one chunk."""
    argv = ["validate", "--games", 37, "--seed", 4, "--stratify",
            "--alpha0", 0.2, "--alpha1", 0.1]
    assert run(argv) == cli.EXIT_OK
    whole = capsys.readouterr()
    counts = chunk_bound(chunk(9))
    assert run(argv) == cli.EXIT_OK
    assert capsys.readouterr() == whole
    assert counts == ([37, 37, 37] if chunk is _one_game_chunks else [3, 1, 19])


def test_compare_updates_excludes_an_invalid_outcome_per_game():
    h, cfg = model.DEFAULT_HYPERPARAMETERS, EngineConfig()
    games = [
        (PlayerBelief("f", 0.3 * k, 0.4 + 0.05 * k), PlayerBelief("o", 1.0, 0.6),
         [1.0, 0.5, 0.0][k % 3], 1 if k % 2 else -1)
        for k in range(12)
    ]
    bad = (PlayerBelief("f", 1.0, 0.5), PlayerBelief("o", 1.0, 0.5), 0.7, 1)
    clean = oracle.compare_updates(games, h, cfg, stratify=True)
    report = oracle.compare_updates(games[:5] + [bad] + games[5:], h, cfg, stratify=True)
    assert clean.excluded == 0
    assert report.excluded == 1
    assert report.rows == clean.rows


def test_compare_updates_makes_no_per_game_scalar_calls(monkeypatch):
    """One array pass: the scalar update and the one-game oracle call are
    not used per game."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-game scalar call")

    for module, name in [(engine, "game_term"), (engine, "period_update"),
                         (oracle, "oracle_posterior")]:
        monkeypatch.setattr(module, name, refuse)
    games = [(PlayerBelief("f", 0.1 * k, 0.5), PlayerBelief("o", 0.5, 0.7), 1.0, 1)
             for k in range(5)]
    report = oracle.compare_updates(games, model.DEFAULT_HYPERPARAMETERS, EngineConfig())
    assert report.rows[0].n == 5
