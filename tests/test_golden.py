"""Golden corpus: stdout digests and exit codes of fixed CLI commands.

The digests were recorded before integer-encoded residue rings and
table-driven field arithmetic replaced series-based arithmetic in
F_q[t]/(f); any change to the bytes printed by these commands fails here.
Commands cover quotient (JSON and DOT), contract, covolume and cusps,
with and without --truncation, over F_2, F_3, F_4 and F_9, for the full
lattice and for congruence subgroups, verify suites over F_2, F_3
and F_4, and classify and probe over matrix and end literals.
"""

import hashlib

import pytest

from sl2btree import cli

GOLDEN = [
    # (arguments, exit code, sha256 of stdout)
    ("quotient --depth 8", 0, "3801e26ffbd0263ca2f8f0974487260e3456669869e99190d5e79cc5847b8885"),
    ("quotient --q 3 --depth 6 --format dot", 0, "594f01a28034c81ac4430d5f852592a55b3da62b11a7f2c01ceb6cfc4da1bef6"),
    ("quotient --lattice congruence --level t^2 --depth 7", 0, "98c01eeaedffad3779ace02eca0beff64da0a4b340bd8dae95a2bc5d4477ebee"),
    ("quotient --lattice congruence --level t^2+t --depth 6 --format dot", 0, "d3feef527783cb67fbad01439264b734f4f4f6a03fe09499502de66e116a249e"),
    ("quotient --q 3 --lattice congruence --level t --depth 6", 0, "271a228b06b4e7840f305b137f92309ce6f78b146141f5895c4648574ade57bd"),
    ("quotient --q 4 --lattice congruence --level t+[x] --depth 6 --format dot", 0, "402ea8f4aca1e93e6c35177001d17ceb2d60746d12a66ad1da1397609184030c"),
    ("quotient --q 9 --lattice congruence --level t --depth 4", 0, "1b063b449f59443f87e1dcc1410302ac1a31837ba99f4662ccb3774dd7e9e7ee"),
    ("contract --lattice congruence --level t^2 --depth 8", 0, "fdd5d025c8775b0d0452dea7f53072a153e7887447f1b6430e97c6fa7409d9d4"),
    ("contract --q 3 --lattice congruence --level t --depth 6 --format dot", 0, "0a2c16723e818c78b04ff663d2076f05ecd1adb29ee7ec75d050b927c39a14e6"),
    ("contract --q 4 --depth 8", 0, "b2d5f1bf5aa7a88122799be0abad06ff5f7514b9fb3aff07521d53c3a549abf8"),
    ("covolume --lattice congruence --level t^3 --depth 8", 0, "ada3b10d1e947cee885b3e13b94c568c0a9efef4ca26a7ccb4f3211ea9ea5731"),
    ("covolume --q 3 --lattice congruence --level t^2+1 --depth 6", 0, "3034baf2d0fb7c44cf989d62b1c11a50626aea7a688a8d427aef139e1d5b5bdf"),
    ("covolume --q 9 --depth 8", 0, "335e9670b6b8cb80ca9a624292d14ee7e1e3d6899111cd11f593d63afd996d00"),
    ("covolume --lattice congruence --level t^2 --depth 2", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("cusps --lattice congruence --level t^2 --depth 8", 0, "812da3b59091070a08c63d310435ced02e617bf698cc073edf8fa3d029f63d40"),
    ("cusps --lattice congruence --level t --depth 8 --truncation 4", 0, "a074bbdf3f11769638a00b00776e77f8a4cad47c06f0dd7e14887548ed8e3e65"),
    ("cusps --q 3 --lattice congruence --level t --depth 6 --truncation 3", 0, "894f76071ba8fed4d55d0be5aefc5dd21436586b5ed08e367f114ae7af4d40a7"),
    ("cusps --q 4 --lattice congruence --level t+1 --depth 6", 0, "d7831d427eb428f625f9f412f95e150580d80fa194f7a78caaace75b6a57a704"),
    ("cusps --lattice congruence --level t^2+t --depth 7 --truncation 3", 0, "16eb3c4df7ef72f93bb7a946b63625fff31e641a630125213546439490b98d40"),
    # full-lattice cusps and horoball certification, recorded before the
    # full lattice became the level-1 case of the residue-table code path
    ("cusps --depth 8", 0, "56f9949fb091140a1c16c9ef691a2fa0875ec41104a73758bb865a26bb7bf6a2"),
    ("cusps --depth 8 --truncation 5", 0, "3752cd12df2e78f659a080c679caaa2f5e77d598d91217e787fea4b5f18b08f2"),
    ("cusps --q 3 --depth 8 --truncation 5", 0, "2144d35427dd934fb5c078bd66ed7a7336672f242605155b4994b4ce46ef1971"),
    ("cusps --q 4 --modulus 1,1,1 --depth 8 --truncation 5", 0, "772d34961d90496689469d00f8f1d9cdd6eedff350670b6ecf4df26b9a8b291a"),
    ("cusps --q 9 --depth 6 --truncation 3", 0, "4b0aa4c92d1e57f99ad6131e33f264b3c3283f03da854670a84eefb7da75e12c"),
    ("contract --q 3 --depth 6 --format dot", 0, "e6e45ff1da6796bf6444fc0845eeb9d208a549688a47123566da9aff04daad7a"),
    # verify runs, recorded before the distance-bfs oracle became a
    # bidirectional search and meeting_level a digit comparison. The parent's
    # one-sided search could not finish F_4 at seed 0 within memory (a pair at
    # distance 11 holds about 7 million vertices); every passing distance-bfs
    # run prints the same line, so that case carries the digest recorded at
    # F_4, seed 1.
    ("verify --q 2 --suites distance-bfs --seed 0", 0, "73e1252f292568b65f852d6991d6fb741828e6b2212ee8857cef416b1344f91a"),
    ("verify --q 2 --suites distance-bfs --seed 1", 0, "73e1252f292568b65f852d6991d6fb741828e6b2212ee8857cef416b1344f91a"),
    ("verify --q 3 --suites distance-bfs --seed 0", 0, "73e1252f292568b65f852d6991d6fb741828e6b2212ee8857cef416b1344f91a"),
    ("verify --q 3 --suites distance-bfs --seed 1", 0, "73e1252f292568b65f852d6991d6fb741828e6b2212ee8857cef416b1344f91a"),
    ("verify --q 4 --suites distance-bfs --seed 0", 0, "73e1252f292568b65f852d6991d6fb741828e6b2212ee8857cef416b1344f91a"),
    ("verify --q 4 --suites distance-bfs --seed 1", 0, "73e1252f292568b65f852d6991d6fb741828e6b2212ee8857cef416b1344f91a"),
    ("verify --q 2 --suites horoball-union,horosphere-transitivity,busemann-cocycle", 0, "feed048f6116ef8ee3fcfeef6a1508bc6e1fbd3b3c8feff359f308c22c1ba860"),
    ("verify --q 3 --suites horoball-union,horosphere-transitivity,busemann-cocycle", 0, "1b19b65097cdeec7cb64e3d3b5db9324ea6710776014503795be2c6d713035c7"),
    ("verify --q 4 --suites horoball-union,horosphere-transitivity,busemann-cocycle", 0, "9b8d48fb74b3578f2a79cf22b2a2185c6681e94c581aee98c4987eee70cab1b0"),
    ("verify --q 2", 0, "e959033c697d6052183e129b274bed733d9f6bb307ce15d2aead97bc92d76eb2"),
    # recorded while horospheres were still a filtered radius-6 ball (664 301
    # vertices at F_9), before they were built from the ray
    ("verify --q 9 --suites horosphere-transitivity --seed 0", 0, "07eb99d2315b84dd1ba921559e3a766c4db62cc18a49cb1bb3bd17615bfaed48"),
    # recorded while certified horoballs were still a filtered ball and
    # vertex reduction stepped through general matrix actions; the exit-1
    # run prints the first violating pair, so it pins the member order
    ("cusps --q 9 --depth 6 --truncation 5", 0, "d3a65e90b18d41890ada68fde1f50a42da29096f30608d03c77050666cf81d19"),
    ("cusps --q 3 --depth 2 --truncation 4", 1, "a49b45dc6a15ce49883aae2f057b1c447a8eb0ded17a1cffb8946fefa8749348"),
    # recorded while the horoball check still tested every pair of members
    # of a quotient vertex, before one transporter check per member decided
    # them; both print their first violating pair
    ("cusps --depth 2 --truncation 3", 1, "5e8c4cc9677be82d622e971b1e5f6c2bfb6b9a76ef01f1d37a6ef42fdcbea881"),
    ("cusps --q 4 --modulus 1,1,1 --depth 2 --truncation 4", 1, "30b3a3281177839665040cf748b619e9cfd72c1ece971c7ae3bb4ebf3eab24b2"),
    # recorded while `contract` still matched every cusp to its ray; the
    # first has no certified ray and contracts to a copy of the quotient
    ("contract --lattice congruence --level t^3 --depth 4", 0, "e467b642b4d814ac0e16dec171d622a7a3bf3a66b5369efda385f72c317b7baa"),
    ("contract --lattice congruence --level t^2+t --depth 7 --format dot", 0, "acd4724b500ef0284cc4c1535ba1fcda830d4e6e3352131130db206a3a794ea6"),
    # recorded while the literal parsers still scanned brackets four ways:
    # classify over F_2, F_3, F_4 and F_9 (elliptic and hyperbolic, with and
    # without axis ends, bracketed extension coefficients), and probe along
    # up, rat and trunc ends for the full lattice and congruence levels; the
    # exit-1 run trips --max-order, and both trunc probes report truncated_at
    ("classify [[1,1],[0,1]]", 0, "22faf2decda858c614f0a392d11634d07e66c618679672879be91a1a4078a4db"),
    ("classify [[1,1],[0,1]] --ends 6", 0, "22faf2decda858c614f0a392d11634d07e66c618679672879be91a1a4078a4db"),
    ("classify [[t,1],[1,0]]", 0, "e4bfe1d84954bf6defafab914851d7cf598b54ecd9ab7b090fb88ffca7738ae7"),
    ("classify [[t,1],[1,0]] --ends 6", 0, "0aaf97e7846a3467b3f2a0c3b42d73a49c2c499ed662a8f17f39ef6a65e485f9"),
    ("classify [[2,t],[0,2]] --q 3", 0, "6d632e6f9b2719d8dc6ac7b8290b877d3bf942051ec8edc0cdb9e3cb582cc34a"),
    ("classify [[2,t],[0,2]] --q 3 --ends 6", 0, "6d632e6f9b2719d8dc6ac7b8290b877d3bf942051ec8edc0cdb9e3cb582cc34a"),
    ("classify [[1,t],[t,t^2+1]] --q 3", 0, "fe61249ffc9b2c617cad126dc6279178ba8c87a1f40bc31e221ea3bf43a28bc2"),
    ("classify [[1,t],[t,t^2+1]] --q 3 --ends 6", 0, "d19aa0bd451e143a8541672c5225de7a948e1b17e141ddf9dc0cb48264653a52"),
    ("classify [[[x+1]*t,1],[1,0]] --q 4 --modulus 1,1,1 --ends 6", 0, "864294df3f126af95a23f97e98771f0186a359d906e2b1ee5d27f39428962f5d"),
    ("classify [[[x+1]*t+[2*x],1],[2,0]] --q 9 --ends 6", 0, "52453f185d6a4398689120f368444321843a0803a17b3e594d46ad2cd89aff56"),
    ("probe up --depth 8", 0, "96dba26a436ab63c3cafe6d4264444c2235b56f50d8ad5d15d1096736a8cabaf"),
    ("probe rat(1,t) --q 3 --depth 8", 0, "6f97bb0ae6f9625c5df0af58d62b08593db02c6c8ef4ec524dd9b47b11a414f0"),
    ("probe trunc(t+p,3) --depth 8", 0, "a165db2a112ca43a8ae88cc9b70e92898b18cf82182e435d6efd4e0773279837"),
    ("probe rat(t+1,t^2) --lattice congruence --level t^2 --depth 8", 0, "f666bbf24c61a86784c26638bdc686dc6ae8e8ecd3f0244ecb13506c4d44d69f"),
    ("probe up --q 3 --lattice congruence --level t --depth 6", 0, "f07888d888ba821abc67ba579b4b700975292d0fc9586113c134e53ed6a2a5d6"),
    ("probe up --depth 8 --max-order 10", 1, "cab564ea31f6fe16ab2e6512e857ab23012a7aebb3dc76dfdbc0383706e39ffe"),
    ("probe trunc(p+p^2,2) --q 3 --depth 8 --max-order 24", 0, "c89b111552787ee15aa4a4efa1ca8e0f1ed2320a0239026fc56be6a6fc0a4bab"),
    # below depth deg f no top vertex heads a ray; covolume printed the
    # finite edge sum alone (288/1, the covolume being 384) before it
    # refused such a depth
    ("covolume --lattice congruence --level t^3 --depth 2", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("command,code,digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_golden_output(capsys, command, code, digest):
    rc = cli.main(command.split())
    out = capsys.readouterr().out
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
