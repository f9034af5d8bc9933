import copyreg
import pickle

import pytest

from metahybrid import fixtures, pipeline


@pytest.fixture(scope="session")
def small_dataset():
    return fixtures.make_fixture(n_users=40, n_items=80, seed=2)


@pytest.fixture(scope="session")
def tiny_movielens(tmp_path_factory):
    """MovieLens-layout files: 3 users, 4 items, 10 ratings."""
    d = tmp_path_factory.mktemp("ml")
    (d / "ratings.dat").write_text(
        "1::1193::5::978300760\n"
        "1::661::3::978302109\n"
        "1::914::3::978301968\n"
        "1::3408::4::978300275\n"
        "2::1193::5::978298413\n"
        "2::661::3::978299200\n"
        "2::914::4::978299800\n"
        "3::1193::4::978220000\n"
        "3::3408::5::978221000\n"
        "3::914::2::978222000\n"
    )
    (d / "users.dat").write_text(
        "1::F::1::10::48067\n"
        "2::M::56::16::70072\n"
        "3::M::25::15::55117\n"
    )
    (d / "movies.dat").write_text(
        "1193::One Flew Over the Cuckoo's Nest (1975)::Drama\n"
        "661::James and the Giant Peach (1996)::Animation|Children's|Musical\n"
        "914::My Fair Lady (1964)::Musical|Romance\n"
        "3408::Erin Brockovich (2000)::Drama\n"
    )
    (d / "metadata.csv").write_text(
        "item_id,title,year,keywords,runtime,cast,language,budget,profit,avg_rating,plot\n"
        "1193,One Flew Over the Cuckoo's Nest,1975,asylum|rebellion|nurse|mental illness,"
        "133,Jack Nicholson,en,3000000,106000000,8.7,Plot one.\n"
        ",My Fair Lady,1964,musical|class,170,Audrey Hepburn,en,17000000,55000000,7.8,Plot two.\n"
    )
    return d


@pytest.fixture
def read_older_artifact(tmp_path):
    """Reads back through the artifact store a `cls` object pickled with
    `state`, in the format-1 envelope that versions before the current
    `ARTIFACT_FORMAT` wrote."""
    def read(cls, state):
        class OlderPickler(pickle.Pickler):
            def reducer_override(self, obj):
                if type(obj) is cls:
                    return copyreg.__newobj__, (cls,), state
                return NotImplemented

        with open(tmp_path / "older.pkl", "wb") as fh:
            OlderPickler(fh, protocol=4).dump({"format_version": 1,
                                               "payload": cls.__new__(cls)})
        return pipeline.ArtifactStore(str(tmp_path)).read("older.pkl", "evaluate")
    return read
