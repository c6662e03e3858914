import mimocap


def test_public_names_resolve_and_star_import_succeeds():
    missing = [name for name in mimocap.__all__ if not hasattr(mimocap, name)]
    assert not missing
    namespace: dict = {}
    exec("from mimocap import *", namespace)
    assert set(mimocap.__all__) <= set(namespace)
