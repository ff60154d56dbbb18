import flipshift


def test_all_is_sorted_unique_and_resolves():
    names = flipshift.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(flipshift, n)] == []
    namespace: dict = {}
    exec("from flipshift import *", namespace)
    assert set(names) <= set(namespace)
