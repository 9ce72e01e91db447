"""Evaluator outputs pinned bit for bit.

Each row holds float.hex of the value and the log scale (plain call, then
scaled=True), of every series term, of the series argument (t or v) and
of the exponent profile (eta or S).  A refactor of the evaluators must
reproduce every row exactly; a change that moves a value on purpose
re-records the table and says why.
"""

from __future__ import annotations

import pytest

from uniasym import BesselParams, LegendreParams, eval_bessel, eval_bessel_form, eval_legendre


def _call(family, point, kind, scaled):
    if family == "bessel":
        return eval_bessel(BesselParams(*point, kind), scaled=scaled)
    if family == "legendre":
        return eval_legendre(LegendreParams(*point, kind), scaled=scaled)
    return eval_bessel_form(*point, kind, scaled=scaled)


def _hex(x):
    return None if x is None else x.hex()


# (family, point, kind) -> (value, log_scale, scaled value, scaled log_scale,
# terms, arg, profile).  Points: bessel (n, lam, m); legendre
# (n, gamma, xi, x, m); bessel_form (n, lam, theta, xi, m).
GOLDEN = {
    ('bessel', (4, 2.0, 3), 'I'): ('0x1.2d1579dbf8a13p+7', None, '0x1.0261d6124994ap+0', '0x1.405195313ebe6p+2', ('0x1.0000000000000p+0', '0x1.314c3d92a9e91p-7', '0x1.6c16c16c16c19p-15', '-0x1.cd4b2f4bb3d07p-15'), '0x1.c9f25c5bfedd9p-2', '0x1.c13e40b7ea3cdp+0'),
    ('bessel', (4, 2.0, 3), 'K'): ('0x1.855ff31f90233p-12', None, '0x1.fb47b49178378p-1', '-0x1.f8e7ab1af7346p+2', ('0x1.0000000000000p+0', '-0x1.314c3d92a9e91p-7', '0x1.6c16c16c16c19p-15', '0x1.cd4b2f4bb3d07p-15'), '0x1.c9f25c5bfedd9p-2', '0x1.c13e40b7ea3cdp+0'),
    ('bessel', (4, 2.0, 3), 'dI'): ('0x1.419ab3355c34cp+7', None, '0x1.edb5bdae505d5p-1', '0x1.477593232564ep+2', ('0x1.0000000000000p+0', '-0x1.22086db1bb03cp-5', '-0x1.87654320fedccp-12', '0x1.cc4c740b5b6cap-15'), '0x1.c9f25c5bfedd9p-2', '0x1.c13e40b7ea3cdp+0'),
    ('bessel', (4, 2.0, 3), 'dK'): ('-0x1.c6c0b77992124p-12', None, '-0x1.08f4348073b18p+0', '-0x1.f1c3ad29108ddp+2', ('0x1.0000000000000p+0', '0x1.22086db1bb03cp-5', '-0x1.87654320fedccp-12', '-0x1.cc4c740b5b6cap-15'), '0x1.c9f25c5bfedd9p-2', '0x1.c13e40b7ea3cdp+0'),
    ('bessel', (600, 3.0, 6), 'I'): ('0x1.0003993c8a70ep+0', '0x1.a80d056dad17bp+10', '0x1.0003993c8a70ep+0', '0x1.a80d056dad17bp+10', ('0x1.0000000000000p+0', '0x1.cc8a41a0067e7p-15', '0x1.40378c737d63ep-27', '0x1.01201a762a73cp-42', '-0x1.05e7effe8aed6p-48', '-0x1.f84b11082e37cp-58', '-0x1.916e5fcb61526p-67'), '0x1.43d136248490fp-2', '0x1.6adba0ba7a46ap+1'),
    ('bessel', (600, 3.0, 6), 'K'): ('0x1.fff8ce2706e07p-1', '-0x1.aa1c78063ddf5p+10', '0x1.fff8ce2706e07p-1', '-0x1.aa1c78063ddf5p+10', ('0x1.0000000000000p+0', '-0x1.cc8a41a0067e7p-15', '0x1.40378c737d63ep-27', '-0x1.01201a762a73cp-42', '-0x1.05e7effe8aed6p-48', '0x1.f84b11082e37cp-58', '-0x1.916e5fcb61526p-67'), '0x1.43d136248490fp-2', '0x1.6adba0ba7a46ap+1'),
    ('bessel', (600, 3.0, 6), 'dI'): ('0x1.ffe81b6120776p-1', '0x1.a810648ab138fp+10', '0x1.ffe81b6120776p-1', '0x1.a810648ab138fp+10', ('0x1.0000000000000p+0', '-0x1.7e3f8d8242d48p-13', '-0x1.4c05eedb19dbap-26', '-0x1.1bc38697b9899p-39', '0x1.07e89ddd972c1p-48', '0x1.1b91b1ee4bcdep-57', '0x1.cc795cce71c68p-67'), '0x1.43d136248490fp-2', '0x1.6adba0ba7a46ap+1'),
    ('bessel', (600, 3.0, 6), 'dK'): ('-0x1.000bf1a96ccefp+0', '-0x1.aa1918e939be0p+10', '-0x1.000bf1a96ccefp+0', '-0x1.aa1918e939be0p+10', ('0x1.0000000000000p+0', '0x1.7e3f8d8242d48p-13', '-0x1.4c05eedb19dbap-26', '0x1.1bc38697b9899p-39', '0x1.07e89ddd972c1p-48', '-0x1.1b91b1ee4bcdep-57', '0x1.cc795cce71c68p-67'), '0x1.43d136248490fp-2', '0x1.6adba0ba7a46ap+1'),
    ('legendre', (4, 1.3, 0.1, 0.5, 3), 'p'): ('0x1.154295da81fbfp-6', None, '0x1.0620d76caf3acp+0', '-0x1.0693a32163c16p+2', ('0x1.0000000000000p+0', '0x1.84c69be47c6ebp-6', '0x1.a5ca27e6f54fap-12', '-0x1.93f4ac24c9ec3p-13'), '0x1.54037c8dba741p-2', '-0x1.70a8c9e4e2fbcp-3'),
    ('legendre', (4, 1.3, 0.1, 0.5, 3), 'q'): ('0x1.3a05347df64d5p+2', None, '0x1.f427c3b09b47dp-1', '0x1.9d2dd49c69c5cp+0', ('0x1.0000000000000p+0', '-0x1.84c69be47c6ebp-6', '0x1.a5ca27e6f54fap-12', '0x1.93f4ac24c9ec3p-13'), '0x1.54037c8dba741p-2', '-0x1.70a8c9e4e2fbcp-3'),
    ('legendre', (4, 1.3, 0.1, 0.5, 3), 'dp'): ('-0x1.0fe6bb85cfd8bp-5', None, '-0x1.00116c4a5d8fdp+0', '-0x1.b3ef4a1f85e2dp+1', ('0x1.0000000000000p+0', '0x1.14cf8edbbe1d4p-11', '-0x1.98a71d3a0327ap-12', '0x1.0b994ab70767ap-13'), '0x1.54037c8dba741p-2', '-0x1.70a8c9e4e2fbcp-3'),
    ('legendre', (4, 1.3, 0.1, 0.5, 3), 'dq'): ('0x1.425e08e564a38p+3', None, '0x1.ff76fda3f65fap-1', '0x1.27cee6717682ep+1', ('0x1.0000000000000p+0', '-0x1.14cf8edbbe1d4p-11', '-0x1.98a71d3a0327ap-12', '-0x1.0b994ab70767ap-13'), '0x1.54037c8dba741p-2', '-0x1.70a8c9e4e2fbcp-3'),
    ('legendre', (200, 2.0, -0.5, -0.3, 6), 'p'): ('0x1.ff0cebbbf4691p-643', None, '0x1.ff1b9133c89b6p-1', '-0x1.bd00277198e0ap+8', ('0x1.0000000000000p+0', '-0x1.c9b5da09c56f8p-10', '0x1.b163c7fd0a805p-19', '-0x1.c20d1fb3f3f76p-28', '0x1.d2c05857c35e6p-37', '-0x1.27f1e8a6315cap-46', '0x1.3a8142e152c2ep-57'), '-0x1.1d3a60caf0ca5p-3', '0x1.0be9e45ee054ep+1'),
    ('legendre', (200, 2.0, -0.5, -0.3, 6), 'q'): ('0x1.30cf3f84dc520p+632', None, '0x1.0072a3bf2addap+0', '0x1.b63de54d860f2p+8', ('0x1.0000000000000p+0', '0x1.c9b5da09c56f8p-10', '0x1.b163c7fd0a805p-19', '0x1.c20d1fb3f3f76p-28', '0x1.d2c05857c35e6p-37', '0x1.27f1e8a6315cap-46', '0x1.3a8142e152c2ep-57'), '-0x1.1d3a60caf0ca5p-3', '0x1.0be9e45ee054ep+1'),
    ('legendre', (200, 2.0, -0.5, -0.3, 6), 'dp'): ('-0x1.2e82582ee0226p-641', None, '-0x1.ff3edc11d3eaap-1', '-0x1.bc23912dbf09ap+8', ('0x1.0000000000000p+0', '-0x1.821bb88f2569fp-10', '-0x1.60e39a1d6c2cbp-21', '-0x1.d49bdc676af4fp-32', '-0x1.a800c2b6dd26ep-41', '-0x1.1f7617126aae7p-49', '0x1.31466887241f9p-55'), '-0x1.1d3a60caf0ca5p-3', '0x1.0be9e45ee054ep+1'),
    ('legendre', (200, 2.0, -0.5, -0.3, 6), 'dq'): ('0x1.68a88dea01356p+633', None, '0x1.00607be8dac0ep+0', '0x1.b71a7b915fe62p+8', ('0x1.0000000000000p+0', '0x1.821bb88f2569fp-10', '-0x1.60e39a1d6c2cbp-21', '0x1.d49bdc676af4fp-32', '-0x1.a800c2b6dd26ep-41', '0x1.1f7617126aae7p-49', '0x1.31466887241f9p-55'), '-0x1.1d3a60caf0ca5p-3', '0x1.0be9e45ee054ep+1'),
    ('bessel_form', (8, 2.0, 0.1, 0.0, 3), 'p'): ('0x1.3d093628fd02fp-42', None, '0x1.012d8878dbc35p+0', '-0x1.ce726b293fb0ep+4', ('0x1.0000000000000p+0', '0x1.2d1530b325294p-8', '0x1.ca9d05f9e40f5p-17', '-0x1.c819697b30e2fp-18'), '0x1.c7a8ad62c85dcp-2', '-0x1.1e808b941b8b9p+1'),
    ('bessel_form', (8, 2.0, 0.1, 0.0, 3), 'q'): ('0x1.71c8eaea7ced2p+36', None, '0x1.fda88448546d3p-1', '0x1.9535c42f54766p+4', ('0x1.0000000000000p+0', '-0x1.2d1530b325294p-8', '0x1.ca9d05f9e40f5p-17', '0x1.c819697b30e2fp-18'), '0x1.c7a8ad62c85dcp-2', '-0x1.1e808b941b8b9p+1'),
    ('bessel_form', (8, 2.0, 0.1, 0.0, 3), 'dp'): ('-0x1.0faa2e54978d1p-34', None, '-0x1.f6ea6a0c11a48p-1', '-0x1.77d5dad325a47p+4', ('0x1.0000000000000p+0', '-0x1.2141a4ef0a33dp-6', '-0x1.8d85c1158ced0p-14', '0x1.c6c3254517b53p-18'), '0x1.c7a8ad62c85dcp-2', '-0x1.1e808b941b8b9p+1'),
    ('bessel_form', (8, 2.0, 0.1, 0.0, 3), 'dq'): ('0x1.4b46b83c2b896p+44', None, '0x1.047e5ecbee815p+0', '0x1.ebd254856e82cp+4', ('0x1.0000000000000p+0', '0x1.2141a4ef0a33dp-6', '-0x1.8d85c1158ced0p-14', '-0x1.c6c3254517b53p-18'), '0x1.c7a8ad62c85dcp-2', '-0x1.1e808b941b8b9p+1'),
    ('bessel_form', (300, 0.7, 1.2, 0.25, 6), 'p'): ('0x1.00128a3c94fafp+0', '-0x1.718d1a7217ecfp+10', '0x1.00128a3c94fafp+0', '-0x1.718d1a7217ecfp+10', ('0x1.0000000000000p+0', '0x1.2937bbcc0b5fep-12', '-0x1.27a6761aa3f45p-21', '-0x1.f4ea3fec45545p-32', '0x1.a73d435c1871bp-41', '0x1.b45425b202d2ep-48', '0x1.49dec893fee04p-56'), '0x1.2ffac4729ae4bp-2', '-0x1.af71158d9ac48p-3'),
    ('bessel_form', (300, 0.7, 1.2, 0.25, 6), 'q'): ('0x1.ffdac6920a954p-1', '0x1.6fe6f06050ba9p+10', '0x1.ffdac6920a954p-1', '0x1.6fe6f06050ba9p+10', ('0x1.0000000000000p+0', '-0x1.2937bbcc0b5fep-12', '-0x1.27a6761aa3f45p-21', '0x1.f4ea3fec45545p-32', '0x1.a73d435c1871bp-41', '-0x1.b45425b202d2ep-48', '0x1.49dec893fee04p-56'), '0x1.2ffac4729ae4bp-2', '-0x1.af71158d9ac48p-3'),
    ('bessel_form', (300, 0.7, 1.2, 0.25, 6), 'dp'): ('-0x1.0007f38ceb93ap+0', '-0x1.717755714ce63p+10', '-0x1.0007f38ceb93ap+0', '-0x1.717755714ce63p+10', ('0x1.0000000000000p+0', '0x1.fa6eee5dcde3bp-14', '0x1.3a063db9b9bc9p-21', '0x1.00a5f057daaf0p-32', '-0x1.d7420cd19e864p-42', '-0x1.869084a455f18p-48', '-0x1.670ca1f700fadp-56'), '0x1.2ffac4729ae4bp-2', '-0x1.af71158d9ac48p-3'),
    ('bessel_form', (300, 0.7, 1.2, 0.25, 6), 'dq'): ('0x1.fff04026eeb8bp-1', '0x1.6ffcb5611bc15p+10', '0x1.fff04026eeb8bp-1', '0x1.6ffcb5611bc15p+10', ('0x1.0000000000000p+0', '-0x1.fa6eee5dcde3bp-14', '0x1.3a063db9b9bc9p-21', '-0x1.00a5f057daaf0p-32', '-0x1.d7420cd19e864p-42', '0x1.869084a455f18p-48', '-0x1.670ca1f700fadp-56'), '0x1.2ffac4729ae4bp-2', '-0x1.af71158d9ac48p-3'),
}


@pytest.mark.parametrize("family,point,kind", list(GOLDEN))
def test_evaluator_bits(family, point, kind):
    value, log_scale, s_value, s_log_scale, terms, arg, profile = GOLDEN[family, point, kind]
    plain = _call(family, point, kind, False)
    scaled = _call(family, point, kind, True)
    assert (_hex(plain.value), _hex(plain.log_scale)) == (value, log_scale)
    assert (_hex(scaled.value), _hex(scaled.log_scale)) == (s_value, s_log_scale)
    assert tuple(t.hex() for t in plain.terms) == terms
    assert tuple(t.hex() for t in scaled.terms) == terms
    assert (plain.arg.hex(), plain.profile.hex()) == (arg, profile)
