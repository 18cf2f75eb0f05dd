"""Seeded regression pins of whole experiments on the adaptive killer.

Every algo runs two learner seeds on the killer at N=9 and N=16, and
fl-bounded also on an iid scenario. Each seed's actions and losses are
pinned by digest (bit for bit), its cumulative loss and its own in-hindsight
comparator by their exact float bits, its restart trials as a list, and its
surrogate losses at every 100th trial to 1e-12. An fl run at N=2 restarts
its seeds on different trials. The killer's comparators are sums of
dyadic or integer costs and stay bit for bit; the iid comparator's loss
(a sum of uniform floats) is held to 1e-12 relative, with the same members.
"""
import hashlib

import numpy as np
import pytest

from olfl import AlgoSpec, ExperimentConfig, GameConfig, ScenarioSpec, best_fixed_subset, run_experiment

SEEDS = (3, 5)
LAMBDA_EVERY = 100


def _config(algo, k, n, horizon, kind="killer"):
    scenario = ScenarioSpec(kind, seed=11 if kind != "killer" else 0)
    return ExperimentConfig(GameConfig(n, horizon, 1.0, 1.0), AlgoSpec(algo, k), scenario, SEEDS)


CONFIGS = {
    f"{algo}-killer-{n}": _config(algo, k, n, 400)
    for algo, k in (("fl", None), ("fl-fixed", 2), ("fl-bounded", 2), ("hedge-exact", None), ("ftl-greedy", None))
    for n in (9, 16)
}
CONFIGS["fl-killer-16-long"] = _config("fl", None, 16, 2000)
CONFIGS["fl-killer-2-long"] = _config("fl", None, 2, 3000)
CONFIGS["fl-bounded-iid-9"] = _config("fl-bounded", 2, 9, 400, "iid")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def fingerprint(config: ExperimentConfig) -> dict:
    """What the pins hold of one experiment."""
    result = run_experiment(config)
    algo = config.algo
    restriction = {"fl-fixed": {"exact_card": algo.cardinality}, "fl-bounded": {"max_card": algo.cardinality}}
    seeds = {}
    for run in result.seed_runs:
        actions = ";".join(",".join(map(str, action.members)) for action in run.actions)
        lambdas = run.surrogate_losses
        entry = {
            "actions": _digest(actions.encode()),
            "losses": _digest(run.losses.tobytes()),
            "cumulative": run.cumulative_loss.hex(),
            "segment_starts": run.segment_starts,
            "lambdas": [None] * (len(run.losses) // LAMBDA_EVERY)
            if lambdas is None
            else lambdas[LAMBDA_EVERY - 1 :: LAMBDA_EVERY].tolist(),
        }
        if run.realized_costs is not None:
            subset, loss = best_fixed_subset(run.realized_costs, **restriction.get(algo.name, {}))
            entry["comparator"] = (subset.members, loss.hex())
        seeds[run.seed] = entry
    return {"comparator": (result.comparator_members, result.comparator_loss.hex()), "seeds": seeds}


# recorded on the code before the comparator became a superset-sum pass and
# the killer ran as row arrays
PINS = {'fl-bounded-iid-9': {'comparator': ((8,), '0x1.800c2b954c8c2p+8'),
                      'seeds': {3: {'actions': '68fb0d5e7b2f6d53',
                                    'cumulative': '0x1.f58780b609934p+8',
                                    'lambdas': [1.7358625580243439,
                                                1.4576700306114048,
                                                1.3756324512652882,
                                                1.3667251090957235],
                                    'losses': 'a7ec0060020c1809',
                                    'segment_starts': None},
                                5: {'actions': '6453d23854430043',
                                    'cumulative': '0x1.e599396ac49b1p+8',
                                    'lambdas': [1.7358625580243439,
                                                1.4576700306114048,
                                                1.3756324512652882,
                                                1.3667251090957235],
                                    'losses': '9a5a4fa17682f2aa',
                                    'segment_starts': None}}},
 'fl-bounded-killer-16': {'comparator': (None, '0x1.2000000000000p+7'),
                          'seeds': {3: {'actions': '28e3a556c94d0a5e',
                                        'comparator': ((11,), '0x1.2200000000000p+7'),
                                        'cumulative': '0x1.f900000000000p+7',
                                        'lambdas': [0.6987117127643632,
                                                    0.7349682764690676,
                                                    0.7596017838737027,
                                                    0.7341108489643111],
                                        'losses': '068ce16391151e31',
                                        'segment_starts': None},
                                    5: {'actions': 'eead4cf9dac4b3e1',
                                        'comparator': ((11,), '0x1.1e00000000000p+7'),
                                        'cumulative': '0x1.e480000000000p+7',
                                        'lambdas': [0.7262371841279412,
                                                    0.7123959238709605,
                                                    0.7341157280168469,
                                                    0.712116826638312],
                                        'losses': '6aa11b313bca60ba',
                                        'segment_starts': None}}},
 'fl-bounded-killer-9': {'comparator': (None, '0x1.97aaaaaaaaa96p+7'),
                         'seeds': {3: {'actions': '7e7be90b09283832',
                                       'comparator': ((6,), '0x1.96aaaaaaaaa96p+7'),
                                       'cumulative': '0x1.40aaaaaaaaaaap+8',
                                       'lambdas': [0.873730254925999,
                                                   0.9202156152335659,
                                                   0.8382871947211584,
                                                   0.9829116257952866],
                                       'losses': 'e44d5b144563bcf1',
                                       'segment_starts': None},
                                   5: {'actions': '30d8d465745474c8',
                                       'comparator': ((5,), '0x1.98aaaaaaaaa96p+7'),
                                       'cumulative': '0x1.3255555555556p+8',
                                       'lambdas': [0.9407175291484559,
                                                   0.9192914028248824,
                                                   0.9756348055546764,
                                                   0.8725140309547006],
                                       'losses': '4e07c401b95564c0',
                                       'segment_starts': None}}},
 'fl-fixed-killer-16': {'comparator': (None, '0x1.9000000000000p+7'),
                        'seeds': {3: {'actions': 'ef5b4ea1b8d435cd',
                                      'comparator': ((2, 8), '0x1.9000000000000p+7'),
                                      'cumulative': '0x1.0100000000000p+9',
                                      'lambdas': [1.5, 1.5, 1.500244170357969, 1.5002439936786276],
                                      'losses': '20debb3706b48b63',
                                      'segment_starts': None},
                                  5: {'actions': '6c896e31579a38f0',
                                      'comparator': ((2, 11), '0x1.9000000000000p+7'),
                                      'cumulative': '0x1.ff40000000000p+8',
                                      'lambdas': [1.4999999999999998, 1.5, 1.5, 1.5],
                                      'losses': 'cc2b6c11febbf9d4',
                                      'segment_starts': None}}},
 'fl-fixed-killer-9': {'comparator': (None, '0x1.0aaaaaaaaaa96p+8'),
                       'seeds': {3: {'actions': 'f13bc24f6249400c',
                                     'comparator': ((2, 7), '0x1.0aaaaaaaaaa96p+8'),
                                     'cumulative': '0x1.2daaaaaaaaaaep+9',
                                     'lambdas': [2.0, 2.0, 2.0, 1.9999999999999996],
                                     'losses': '233f48991237ab10',
                                     'segment_starts': None},
                                 5: {'actions': '09ea49c0a60396cd',
                                     'comparator': ((1, 8), '0x1.0aaaaaaaaaa96p+8'),
                                     'cumulative': '0x1.2e2aaaaaaaaa7p+9',
                                     'lambdas': [2.0, 2.0, 2.0, 2.0],
                                     'losses': '8d16cb4479870092',
                                     'segment_starts': None}}},
 'fl-killer-16': {'comparator': (None, '0x1.1700000000000p+7'),
                  'seeds': {3: {'actions': 'fc26a94d52c5b347',
                                'comparator': ((5,), '0x1.1e00000000000p+7'),
                                'cumulative': '0x1.9d80000000000p+7',
                                'lambdas': [0.594745300089552,
                                            0.5902317701180335,
                                            0.6096374722521465,
                                            0.5899036478342743],
                                'losses': '0567858c795391c9',
                                'segment_starts': [1]},
                            5: {'actions': 'c64815dd2e51017d',
                                'comparator': ((16,), '0x1.1000000000000p+7'),
                                'cumulative': '0x1.a580000000000p+7',
                                'lambdas': [0.593275403146247,
                                            0.6118259451818813,
                                            0.6116314826731193,
                                            0.6089398786935699],
                                'losses': 'f9c65014a92c498a',
                                'segment_starts': [1]}}},
 'fl-killer-16-long': {'comparator': (None, '0x1.6a40000000000p+9'),
                       'seeds': {3: {'actions': 'dc4f6af9133a41d2',
                                     'comparator': ((9,), '0x1.6b00000000000p+9'),
                                     'cumulative': '0x1.1800000000000p+10',
                                     'lambdas': [0.6418739881986117,
                                                 0.6615519309725982,
                                                 0.6612106322998865,
                                                 0.6845595289746489,
                                                 0.6844939365011409,
                                                 0.6616534211795773,
                                                 0.6845374894775837,
                                                 0.6857820017381515,
                                                 0.662695055737141,
                                                 0.6594836640676592,
                                                 0.6428013480721769,
                                                 0.6421995749348158,
                                                 0.6840224161699552,
                                                 0.6623710879037927,
                                                 0.6854534712989431,
                                                 0.7099969890561858,
                                                 0.6630151061088603,
                                                 0.6413012929641773,
                                                 0.660894535609038,
                                                 0.6626820518298636],
                                     'losses': 'a7ab0b48bf8b5eaa',
                                     'segment_starts': [1]},
                                 5: {'actions': '2b2fcf03880a3d6e',
                                     'comparator': ((14,), '0x1.6980000000000p+9'),
                                     'cumulative': '0x1.1430000000000p+10',
                                     'lambdas': [0.6415960630481272,
                                                 0.6416729057735514,
                                                 0.660829166829531,
                                                 0.6617165212170824,
                                                 0.6419405451249732,
                                                 0.6845003369143954,
                                                 0.6417326435191315,
                                                 0.6604393194398186,
                                                 0.6416218645433674,
                                                 0.6605877102566166,
                                                 0.642429999923109,
                                                 0.6615511394332805,
                                                 0.6605227867148333,
                                                 0.6849425855496625,
                                                 0.7136474832921011,
                                                 0.6623866680588302,
                                                 0.660588755204326,
                                                 0.687418920683259,
                                                 0.6595563850812144,
                                                 0.6819372446219452],
                                     'losses': 'b2a3b8c2fb23162c',
                                     'segment_starts': [1]}}},
 'fl-killer-2-long': {'comparator': (None, '0x1.7dea404122f20p+11'),
                      'seeds': {3: {'actions': 'abda8d81ccf7fe3e',
                                    'comparator': ((2,), '0x1.7c4a404122f20p+11'),
                                    'cumulative': '0x1.bd8db71fd3374p+11',
                                    'lambdas': [1.6039235806280046,
                                                1.472622728095411,
                                                1.6654882183965323,
                                                1.6276426485038489,
                                                1.6049576497751559,
                                                1.3573760779815573,
                                                1.5691216411421365,
                                                1.3545631590664717,
                                                1.555429916523115,
                                                1.5438071597310872,
                                                1.7197707327356198,
                                                1.7292967341935053,
                                                1.7298669252857917,
                                                1.5367038045915398,
                                                1.5335493546862689,
                                                1.534955215686509,
                                                1.5316991380164435,
                                                1.5260031633842424,
                                                1.5278982280599078,
                                                1.7272608824703766,
                                                1.3564314185228417,
                                                1.5423828360700924,
                                                1.5314609514924378,
                                                1.7285323881570396,
                                                1.531989918763185,
                                                3.5202224165335574,
                                                2.6839198795225068,
                                                2.0499138712542813,
                                                1.9187763754795817,
                                                1.5160995838026694],
                                    'losses': '60760fbd6e2f2ffe',
                                    'segment_starts': [1, 2598]},
                                5: {'actions': '2c19f9bb1a277d72',
                                    'comparator': ((2,), '0x1.7f8a404122f20p+11'),
                                    'cumulative': '0x1.bb4c1b74a0b1ep+11',
                                    'lambdas': [1.6036243115428617,
                                                1.7449638302038264,
                                                1.6717544468823133,
                                                1.6262939161481322,
                                                1.606624874564473,
                                                1.585488478084922,
                                                1.686501690652884,
                                                1.5702431643335641,
                                                1.6954271311917508,
                                                1.7000540774567972,
                                                1.5483440133000748,
                                                1.547198618526108,
                                                1.3556003336842342,
                                                1.3557843547572852,
                                                1.5432338195985296,
                                                1.539412301412606,
                                                1.7190244479983263,
                                                1.7294628237694365,
                                                1.5382270756077099,
                                                1.5412381323433912,
                                                1.708719290259566,
                                                1.549461214715016,
                                                1.7151457710941203,
                                                1.7069493586518112,
                                                1.5434929714809709,
                                                3.4852782040303842,
                                                2.7714386262797026,
                                                2.0307059292989953,
                                                1.6728424991338156,
                                                1.7566722849552243],
                                    'losses': '19fcbff2c5dbee82',
                                    'segment_starts': [1, 2594]}}},
 'fl-killer-9': {'comparator': (None, '0x1.95aaaaaaaaa96p+7'),
                 'seeds': {3: {'actions': 'f5423900b4b7f485',
                               'comparator': ((5,), '0x1.9aaaaaaaaaa96p+7'),
                               'cumulative': '0x1.0f55555555556p+8',
                               'lambdas': [0.7677637311577437,
                                           0.7697376582082938,
                                           0.8156309770030529,
                                           0.7682699248170981],
                               'losses': 'b07b1357cc4a6245',
                               'segment_starts': [1]},
                           5: {'actions': 'ab0b7503d2ee71d5',
                               'comparator': ((5,), '0x1.90aaaaaaaaa96p+7'),
                               'cumulative': '0x1.10ffffffffffep+8',
                               'lambdas': [0.7655997448068237,
                                           0.812866325545287,
                                           0.7643879917506242,
                                           0.8167410260592171],
                               'losses': 'a7f3b1e483476481',
                               'segment_starts': [1]}}},
 'ftl-greedy-killer-16': {'comparator': (None, '0x1.f400000000000p+6'),
                          'seeds': {3: {'actions': '1286fdb4ecb61fdb',
                                        'comparator': ((1,), '0x1.f400000000000p+6'),
                                        'cumulative': '0x1.f400000000000p+8',
                                        'lambdas': [None, None, None, None],
                                        'losses': '20afd61ca026fc2f',
                                        'segment_starts': None},
                                    5: {'actions': '1286fdb4ecb61fdb',
                                        'comparator': ((1,), '0x1.f400000000000p+6'),
                                        'cumulative': '0x1.f400000000000p+8',
                                        'lambdas': [None, None, None, None],
                                        'losses': '20afd61ca026fc2f',
                                        'segment_starts': None}}},
 'ftl-greedy-killer-9': {'comparator': (None, '0x1.62aaaaaaaaa96p+7'),
                         'seeds': {3: {'actions': '03ea16838e893cfd',
                                       'comparator': ((5,), '0x1.62aaaaaaaaa96p+7'),
                                       'cumulative': '0x1.0aaaaaaaaaa96p+9',
                                       'lambdas': [None, None, None, None],
                                       'losses': 'aa0f10e33bc018b1',
                                       'segment_starts': None},
                                   5: {'actions': '03ea16838e893cfd',
                                       'comparator': ((5,), '0x1.62aaaaaaaaa96p+7'),
                                       'cumulative': '0x1.0aaaaaaaaaa96p+9',
                                       'lambdas': [None, None, None, None],
                                       'losses': 'aa0f10e33bc018b1',
                                       'segment_starts': None}}},
 'hedge-exact-killer-16': {'comparator': (None, '0x1.fa00000000000p+6'),
                           'seeds': {3: {'actions': '981cc4c20fb7835a',
                                         'comparator': ((6,), '0x1.0800000000000p+7'),
                                         'cumulative': '0x1.9040000000000p+8',
                                         'lambdas': [1.3441088760163364,
                                                     0.8657404910270309,
                                                     0.650465981034626,
                                                     0.5461676363605481],
                                         'losses': '17dd11f2820d9d7e',
                                         'segment_starts': None},
                                     5: {'actions': 'ecc9ffcc4eb6c1c3',
                                         'comparator': ((6,), '0x1.e400000000000p+6'),
                                         'cumulative': '0x1.a2c0000000000p+8',
                                         'lambdas': [1.3433412188555316,
                                                     0.8866670732392703,
                                                     0.6237807519893576,
                                                     0.5146708002153411],
                                         'losses': '53a33dafa1b0da6e',
                                         'segment_starts': None}}},
 'hedge-exact-killer-9': {'comparator': (None, '0x1.75aaaaaaaaa96p+7'),
                          'seeds': {3: {'actions': '96337d850455843d',
                                        'comparator': ((2,), '0x1.74aaaaaaaaa96p+7'),
                                        'cumulative': '0x1.33ffffffffff1p+8',
                                        'lambdas': [0.9306927132183436,
                                                    0.6104390738159657,
                                                    0.5061230757961256,
                                                    0.5580843860034413],
                                        'losses': '82f5390ea5253bcf',
                                        'segment_starts': None},
                                    5: {'actions': 'f8268ff7b8cca3d9',
                                        'comparator': ((8,), '0x1.76aaaaaaaaa96p+7'),
                                        'cumulative': '0x1.41aaaaaaaaa9cp+8',
                                        'lambdas': [0.884271923294089,
                                                    0.6222889769542443,
                                                    0.5650690922309779,
                                                    0.5015663504515061],
                                        'losses': '496cca0ed5577ee1',
                                        'segment_starts': None}}}}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_seeded_experiments_replay_their_pins(name):
    got, pinned = fingerprint(CONFIGS[name]), PINS[name]
    if CONFIGS[name].scenario.kind == "killer":
        assert got["comparator"] == pinned["comparator"]
    else:  # sums of uniform floats: the comparator may add them in another order
        (members, loss), (pinned_members, pinned_loss) = got["comparator"], pinned["comparator"]
        assert members == pinned_members
        assert float.fromhex(loss) == pytest.approx(float.fromhex(pinned_loss), rel=1e-12)
    assert got["seeds"].keys() == pinned["seeds"].keys()
    for seed, expected in pinned["seeds"].items():
        entry = dict(got["seeds"][seed])
        lambdas, expected_lambdas = entry.pop("lambdas"), expected["lambdas"]
        assert entry == {key: value for key, value in expected.items() if key != "lambdas"}
        if expected_lambdas[0] is None:
            assert lambdas == expected_lambdas
        else:
            assert np.abs(np.array(lambdas) - expected_lambdas).max() <= 1e-12
