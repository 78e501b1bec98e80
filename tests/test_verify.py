from thomae import CurveSpec, DivisorKind, run_suite
from thomae import verify


def test_run_suite_enumerates_shifted_divisors_once(monkeypatch):
    calls = []
    original = verify.enumerate_divisors

    def counting(spec, kind):
        calls.append(kind)
        return original(spec, kind)

    monkeypatch.setattr(verify, "enumerate_divisors", counting)
    ran, findings = run_suite(CurveSpec.from_alphas(5, [1, 1, 1, 2]))
    assert findings == []
    assert "enumeration" in ran and "operators" in ran
    assert calls.count(DivisorKind.XI) == 1
